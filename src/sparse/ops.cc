#include "sparse/ops.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace freehgc::sparse {

namespace {

// Minimum chunk widths (grains) per kernel. Chunk layout is a pure
// function of (n, grain) — see exec::ExecContext::ChunkSize — so these
// constants are part of the determinism contract: changing one changes
// the float association of chunked reductions.
constexpr int64_t kRowMergeGrain = 64;   // SpGEMM row merges
constexpr int64_t kRowScaleGrain = 512;  // normalize / SpMv rows
constexpr int64_t kAxpyGrain = 2048;     // elementwise vector updates

// Column-block width of the SpMmDense inner loop: 64 floats (256 B, four
// cache lines) of the output row stay hot while a row's sparse entries
// stream by. Blocking only reorders the (entry, column) loop nest; each
// output element still accumulates its products in ascending entry
// order, so values are bit-identical to the unblocked loop.
constexpr int64_t kSpMmColBlock = 64;

// Transpose chunks are wider than the generic 256-chunk cap allows: each
// chunk owns a full column histogram (cols * 8 bytes), so the chunk
// count — not the thread count, which must not affect layout — bounds
// the transient scratch. At most 16 histograms, and fewer when the
// matrix is wide: the scratch budget is capped at 16 MiB so transposing
// a graph-scale matrix (hundreds of thousands of columns) does not
// transiently allocate more than the matrix itself. The chunk count is a
// pure function of the shape, never the thread count, so the output
// layout stays bit-identical to the sequential transpose.
int64_t TransposeGrain(int64_t rows, int64_t cols) {
  constexpr int64_t kScratchBudgetBytes = int64_t{16} << 20;
  const int64_t by_mem =
      std::max<int64_t>(1, kScratchBudgetBytes / (std::max<int64_t>(1, cols) *
                                                  int64_t{sizeof(int64_t)}));
  const int64_t chunks = std::min<int64_t>(16, by_mem);
  return std::max<int64_t>(2048, (rows + chunks - 1) / chunks);
}

// Debug builds assert the full CSR contract (sorted unique columns,
// monotone indptr, finite values) after every structure-producing
// kernel; release builds skip the O(nnz) scan.
const CsrMatrix& DebugValidated(const CsrMatrix& m) {
#ifndef NDEBUG
  const Status s = m.Validate();
  FREEHGC_CHECK(s.ok()) << s.ToString();
#endif
  return m;
}

}  // namespace

CsrMatrix Transpose(const CsrMatrix& a, exec::ExecContext* ctx) {
  FREEHGC_TRACE_SPAN("transpose");
  const int32_t rows = a.rows(), cols = a.cols();
  exec::ExecContext& ex = exec::Resolve(ctx);
  const int64_t grain = TransposeGrain(rows, cols);
  const int64_t chunk = exec::ExecContext::ChunkSize(rows, grain);
  const int64_t num_chunks = exec::ExecContext::NumChunks(rows, grain);

  // Pass 1 — per-chunk column histograms (disjoint slices of one flat
  // array, so no synchronization and no order dependence).
  std::vector<int64_t> counts(
      static_cast<size_t>(num_chunks) * static_cast<size_t>(cols), 0);
  ex.ParallelFor(rows, grain,
                 [&](int64_t begin, int64_t end, exec::Workspace&) {
                   int64_t* cnt = counts.data() +
                                  (begin / chunk) * static_cast<int64_t>(cols);
                   for (int64_t r = begin; r < end; ++r) {
                     for (int32_t c : a.RowIndices(static_cast<int32_t>(r))) {
                       ++cnt[c];
                     }
                   }
                 });

  // Column totals become the output indptr; the histograms then turn into
  // per-chunk write cursors (chunk c's slot for column j starts after
  // every lower chunk's entries of j). Entries of a column are written in
  // ascending source-row order — chunks cover ascending row ranges and
  // each chunk scans its rows in order — so output rows come out sorted
  // and the result is bit-identical to the sequential transpose.
  std::vector<int64_t> indptr(static_cast<size_t>(cols) + 1, 0);
  for (int64_t c = 0; c < num_chunks; ++c) {
    const int64_t* cnt = counts.data() + c * static_cast<int64_t>(cols);
    for (int32_t j = 0; j < cols; ++j) {
      indptr[static_cast<size_t>(j) + 1] += cnt[j];
    }
  }
  for (size_t i = 1; i < indptr.size(); ++i) indptr[i] += indptr[i - 1];
  {
    std::vector<int64_t> run(indptr.begin(), indptr.end() - 1);
    for (int64_t c = 0; c < num_chunks; ++c) {
      int64_t* cnt = counts.data() + c * static_cast<int64_t>(cols);
      for (int32_t j = 0; j < cols; ++j) {
        const int64_t tmp = cnt[j];
        cnt[j] = run[static_cast<size_t>(j)];
        run[static_cast<size_t>(j)] += tmp;
      }
    }
  }

  // Pass 2 — scatter into the reserved slots.
  std::vector<int32_t> indices(a.indices().size());
  std::vector<float> values(a.values().size());
  ex.ParallelFor(
      rows, grain, [&](int64_t begin, int64_t end, exec::Workspace&) {
        int64_t* cursor =
            counts.data() + (begin / chunk) * static_cast<int64_t>(cols);
        for (int64_t r = begin; r < end; ++r) {
          auto idx = a.RowIndices(static_cast<int32_t>(r));
          auto val = a.RowValues(static_cast<int32_t>(r));
          for (size_t k = 0; k < idx.size(); ++k) {
            const int64_t pos = cursor[idx[k]]++;
            indices[static_cast<size_t>(pos)] = static_cast<int32_t>(r);
            values[static_cast<size_t>(pos)] = val[k];
          }
        }
      });
  auto res = CsrMatrix::FromParts(cols, rows, std::move(indptr),
                                  std::move(indices), std::move(values));
  FREEHGC_CHECK(res.ok());
  CsrMatrix out = std::move(res).value();
  DebugValidated(out);
  return out;
}

CsrMatrix RowNormalize(const CsrMatrix& a, exec::ExecContext* ctx) {
  FREEHGC_TRACE_SPAN("row_normalize");
  CsrMatrix out = a;
  auto& values = out.mutable_values();
  exec::Resolve(ctx).ParallelFor(
      a.rows(), kRowScaleGrain,
      [&](int64_t begin, int64_t end, exec::Workspace&) {
        for (int64_t r = begin; r < end; ++r) {
          const float s = a.RowSum(static_cast<int32_t>(r));
          if (s == 0.0f) continue;
          const float inv = 1.0f / s;
          for (int64_t k = a.indptr()[r]; k < a.indptr()[r + 1]; ++k) {
            values[static_cast<size_t>(k)] *= inv;
          }
        }
      });
  return out;
}

CsrMatrix SymNormalize(const CsrMatrix& a, exec::ExecContext* ctx) {
  FREEHGC_CHECK(a.rows() == a.cols());
  FREEHGC_TRACE_SPAN("sym_normalize");
  exec::ExecContext& ex = exec::Resolve(ctx);
  std::vector<float> inv_sqrt(static_cast<size_t>(a.rows()), 0.0f);
  ex.ParallelFor(a.rows(), kRowScaleGrain,
                 [&](int64_t begin, int64_t end, exec::Workspace&) {
                   for (int64_t r = begin; r < end; ++r) {
                     const float d = a.RowSum(static_cast<int32_t>(r));
                     inv_sqrt[static_cast<size_t>(r)] =
                         d > 0 ? 1.0f / std::sqrt(d) : 0.0f;
                   }
                 });
  CsrMatrix out = a;
  auto& values = out.mutable_values();
  ex.ParallelFor(
      a.rows(), kRowScaleGrain,
      [&](int64_t begin, int64_t end, exec::Workspace&) {
        for (int64_t r = begin; r < end; ++r) {
          for (int64_t k = a.indptr()[r]; k < a.indptr()[r + 1]; ++k) {
            const int32_t c = a.indices()[static_cast<size_t>(k)];
            values[static_cast<size_t>(k)] *=
                inv_sqrt[static_cast<size_t>(r)] *
                inv_sqrt[static_cast<size_t>(c)];
          }
        }
      });
  return out;
}

namespace {

// SpGemm's two passes. The symbolic pass computes the sorted output
// pattern of a * b (independent of values and of any row budget); the
// numeric pass fills values straight into that exactly-sized pattern,
// then prunes to max_row_nnz and drops exact zeros.
struct SpGemmPlan {
  int32_t a_rows = 0;
  int32_t a_cols = 0;
  int32_t b_cols = 0;
  /// Symbolic structure: indptr/indices of the unpruned product pattern
  /// (sorted, unique columns per row).
  std::vector<int64_t> indptr = {0};
  std::vector<int32_t> indices;

  int64_t nnz() const { return static_cast<int64_t>(indices.size()); }
};

SpGemmPlan SpGemmSymbolic(const CsrMatrix& a, const CsrMatrix& b,
                          exec::ExecContext* ctx) {
  FREEHGC_CHECK(a.cols() == b.rows());
  FREEHGC_TRACE_SPAN("spgemm.symbolic");
  static obs::Counter& symbolic_calls =
      obs::MetricsRegistry::Global().GetCounter("spgemm.symbolic_calls");
  symbolic_calls.Increment();
  exec::ExecContext& ex = exec::Resolve(ctx);
  const int32_t m = a.rows(), n = b.cols();
  const int64_t chunk = exec::ExecContext::ChunkSize(m, kRowMergeGrain);
  const int64_t num_chunks = exec::ExecContext::NumChunks(m, kRowMergeGrain);

  SpGemmPlan plan;
  plan.a_rows = m;
  plan.a_cols = a.cols();
  plan.b_cols = n;
  plan.indptr.assign(static_cast<size_t>(m) + 1, 0);

  // Per-row set merges with a byte-marker sparse accumulator; each chunk
  // stages its rows' sorted column lists, spliced below at offsets known
  // from the prefix-summed per-row counts.
  std::vector<std::vector<int32_t>> chunk_indices(
      static_cast<size_t>(num_chunks));
  ex.ParallelFor(m, kRowMergeGrain, [&](int64_t begin, int64_t end,
                                        exec::Workspace& ws) {
    std::vector<uint8_t>& mark = ws.ZeroedMark(static_cast<size_t>(n));
    std::vector<int32_t>& touched = ws.Touched();
    auto& indices = chunk_indices[static_cast<size_t>(begin / chunk)];
    for (int64_t i = begin; i < end; ++i) {
      touched.clear();
      auto ai = a.RowIndices(static_cast<int32_t>(i));
      for (int32_t p : ai) {
        for (int32_t j : b.RowIndices(p)) {
          if (!mark[static_cast<size_t>(j)]) {
            mark[static_cast<size_t>(j)] = 1;
            touched.push_back(j);
          }
        }
      }
      std::sort(touched.begin(), touched.end());
      for (int32_t j : touched) {
        indices.push_back(j);
        mark[static_cast<size_t>(j)] = 0;
      }
      plan.indptr[static_cast<size_t>(i) + 1] =
          static_cast<int64_t>(touched.size());
    }
  });

  for (size_t i = 1; i < plan.indptr.size(); ++i) {
    plan.indptr[i] += plan.indptr[i - 1];
  }
  plan.indices.resize(static_cast<size_t>(plan.indptr.back()));
  ex.ParallelFor(num_chunks, 1,
                 [&](int64_t begin, int64_t end, exec::Workspace&) {
                   for (int64_t c = begin; c < end; ++c) {
                     const size_t offset = static_cast<size_t>(
                         plan.indptr[static_cast<size_t>(c * chunk)]);
                     const auto& ci = chunk_indices[static_cast<size_t>(c)];
                     std::copy(ci.begin(), ci.end(),
                               plan.indices.begin() + offset);
                   }
                 });
  return plan;
}

CsrMatrix SpGemmNumeric(const CsrMatrix& a, const CsrMatrix& b,
                        const SpGemmPlan& plan, int64_t max_row_nnz,
                        exec::ExecContext* ctx) {
  FREEHGC_CHECK(a.cols() == b.rows());
  FREEHGC_CHECK(plan.a_rows == a.rows());
  FREEHGC_CHECK(plan.a_cols == a.cols());
  FREEHGC_CHECK(plan.b_cols == b.cols());
  FREEHGC_TRACE_SPAN("spgemm.numeric");
  // Value metrics (flops = multiply-adds performed, rows truncated and
  // entries dropped by the max_row_nnz budget) accumulate per chunk and
  // land as one atomic add each, so totals are chunk-layout-deterministic
  // — identical at every thread count.
  static obs::Counter& calls =
      obs::MetricsRegistry::Global().GetCounter("spgemm.calls");
  static obs::Counter& flops_ctr =
      obs::MetricsRegistry::Global().GetCounter("spgemm.flops");
  static obs::Counter& out_nnz_ctr =
      obs::MetricsRegistry::Global().GetCounter("spgemm.output_nnz");
  static obs::Counter& rows_truncated =
      obs::MetricsRegistry::Global().GetCounter("spgemm.rows_truncated");
  static obs::Counter& entries_dropped =
      obs::MetricsRegistry::Global().GetCounter("spgemm.entries_dropped");
  static obs::Histogram& row_nnz_hist =
      obs::MetricsRegistry::Global().GetHistogram("spgemm.row_nnz");
  calls.Increment();
  exec::ExecContext& ex = exec::Resolve(ctx);
  const int32_t m = a.rows(), n = b.cols();

  // Pass 1 — fill values at the plan's exact offsets (no staging, no
  // sort, no grow-as-you-go buffers: the plan already fixes where every
  // structural entry lands). Per-row kept counts — exact zeros dropped,
  // max_row_nnz budget applied — land in out_indptr for the prefix sum.
  std::vector<float> plan_values(static_cast<size_t>(plan.nnz()));
  std::vector<int64_t> out_indptr(static_cast<size_t>(m) + 1, 0);
  ex.ParallelFor(m, kRowMergeGrain, [&](int64_t begin, int64_t end,
                                        exec::Workspace& ws) {
    std::vector<float>& accum = ws.ZeroedAccum(static_cast<size_t>(n));
    int64_t flops = 0, truncated = 0, dropped = 0;
    obs::LocalHistogram row_hist;
    for (int64_t i = begin; i < end; ++i) {
      auto ai = a.RowIndices(static_cast<int32_t>(i));
      auto av = a.RowValues(static_cast<int32_t>(i));
      for (size_t k = 0; k < ai.size(); ++k) {
        const int32_t p = ai[k];
        const float apv = av[k];
        auto bi = b.RowIndices(p);
        auto bv = b.RowValues(p);
        flops += static_cast<int64_t>(bi.size());
        for (size_t t = 0; t < bi.size(); ++t) {
          accum[static_cast<size_t>(bi[t])] += apv * bv[t];
        }
      }
      const int64_t base = plan.indptr[static_cast<size_t>(i)];
      const int64_t row_nnz = plan.indptr[static_cast<size_t>(i) + 1] - base;
      int64_t nonzero = 0;
      for (int64_t k = 0; k < row_nnz; ++k) {
        const int32_t j = plan.indices[static_cast<size_t>(base + k)];
        const float v = accum[static_cast<size_t>(j)];
        plan_values[static_cast<size_t>(base + k)] = v;
        accum[static_cast<size_t>(j)] = 0.0f;
        if (v != 0.0f) ++nonzero;
      }
      int64_t kept = nonzero;
      if (max_row_nnz > 0 && nonzero > max_row_nnz) {
        kept = max_row_nnz;
        ++truncated;
        dropped += nonzero - max_row_nnz;
      }
      row_hist.Observe(kept);
      out_indptr[static_cast<size_t>(i) + 1] = kept;
    }
    row_hist.FlushTo(row_nnz_hist);
    flops_ctr.Add(flops);
    if (truncated > 0) {
      rows_truncated.Add(truncated);
      entries_dropped.Add(dropped);
    }
  });

  for (size_t i = 1; i < out_indptr.size(); ++i) {
    out_indptr[i] += out_indptr[i - 1];
  }
  const int64_t out_nnz = out_indptr.back();
  out_nnz_ctr.Add(out_nnz);

  if (out_nnz == plan.nnz()) {
    // Structure unchanged (no budget hit, no exact zeros): the plan's
    // pattern is the output pattern and the values are already in place.
    std::vector<int32_t> indices(plan.indices);
    auto res = CsrMatrix::FromParts(m, n, std::move(out_indptr),
                                    std::move(indices),
                                    std::move(plan_values));
    FREEHGC_CHECK(res.ok());
    CsrMatrix out = std::move(res).value();
    DebugValidated(out);
    return out;
  }

  // Pass 2 — compact the surviving entries to their final offsets. The
  // budget keeps the max_row_nnz entries largest by (|value|, then
  // smaller column index): the column tie-break makes the comparator a
  // total order, so the selected set is independent of candidate order —
  // hence of thread count.
  std::vector<int32_t> indices(static_cast<size_t>(out_nnz));
  std::vector<float> values(static_cast<size_t>(out_nnz));
  ex.ParallelFor(m, kRowMergeGrain, [&](int64_t begin, int64_t end,
                                        exec::Workspace& ws) {
    std::vector<int32_t>& cand = ws.Touched();
    for (int64_t i = begin; i < end; ++i) {
      const int64_t base = plan.indptr[static_cast<size_t>(i)];
      const int64_t row_nnz = plan.indptr[static_cast<size_t>(i) + 1] - base;
      const int64_t out_base = out_indptr[static_cast<size_t>(i)];
      const int64_t kept = out_indptr[static_cast<size_t>(i) + 1] - out_base;
      if (kept == row_nnz) {
        std::copy(plan.indices.begin() + base,
                  plan.indices.begin() + base + row_nnz,
                  indices.begin() + out_base);
        std::copy(plan_values.begin() + base,
                  plan_values.begin() + base + row_nnz,
                  values.begin() + out_base);
        continue;
      }
      cand.clear();
      for (int64_t k = 0; k < row_nnz; ++k) {
        if (plan_values[static_cast<size_t>(base + k)] != 0.0f) {
          cand.push_back(static_cast<int32_t>(k));
        }
      }
      if (static_cast<int64_t>(cand.size()) > kept) {
        // Partial select, not a full sort; plan columns are ascending,
        // so smaller in-row offset == smaller column index.
        std::nth_element(
            cand.begin(), cand.begin() + kept, cand.end(),
            [&](int32_t x, int32_t y) {
              const float ax =
                  std::fabs(plan_values[static_cast<size_t>(base + x)]);
              const float ay =
                  std::fabs(plan_values[static_cast<size_t>(base + y)]);
              if (ax != ay) return ax > ay;
              return x < y;
            });
        cand.resize(static_cast<size_t>(kept));
        std::sort(cand.begin(), cand.end());
      }
      for (size_t t = 0; t < cand.size(); ++t) {
        const int64_t src = base + cand[t];
        indices[static_cast<size_t>(out_base) + t] =
            plan.indices[static_cast<size_t>(src)];
        values[static_cast<size_t>(out_base) + t] =
            plan_values[static_cast<size_t>(src)];
      }
    }
  });
  auto res = CsrMatrix::FromParts(m, n, std::move(out_indptr),
                                  std::move(indices), std::move(values));
  FREEHGC_CHECK(res.ok());
  CsrMatrix out = std::move(res).value();
  DebugValidated(out);
  return out;
}

}  // namespace

CsrMatrix SpGemm(const CsrMatrix& a, const CsrMatrix& b, int64_t max_row_nnz,
                 exec::ExecContext* ctx) {
  FREEHGC_CHECK(a.cols() == b.rows());
  FREEHGC_TRACE_SPAN("spgemm");
  const SpGemmPlan plan = SpGemmSymbolic(a, b, ctx);
  return SpGemmNumeric(a, b, plan, max_row_nnz, ctx);
}

Matrix SpMmDense(const CsrMatrix& a, const Matrix& x,
                 exec::ExecContext* ctx) {
  FREEHGC_CHECK(a.cols() == x.rows());
  FREEHGC_TRACE_SPAN("spmm_dense");
  Matrix out(a.rows(), x.cols());
  const int64_t d = x.cols();
  exec::Resolve(ctx).ParallelFor(
      a.rows(), kRowMergeGrain,
      [&](int64_t begin, int64_t end, exec::Workspace&) {
        for (int64_t r = begin; r < end; ++r) {
          float* out_row = out.Row(r);
          auto idx = a.RowIndices(static_cast<int32_t>(r));
          auto val = a.RowValues(static_cast<int32_t>(r));
          for (int64_t c0 = 0; c0 < d; c0 += kSpMmColBlock) {
            const int64_t c1 = std::min(d, c0 + kSpMmColBlock);
            for (size_t k = 0; k < idx.size(); ++k) {
              const float* x_row = x.Row(idx[k]);
              const float v = val[k];
              for (int64_t c = c0; c < c1; ++c) {
                out_row[c] += v * x_row[c];
              }
            }
          }
        }
      });
  return out;
}

Matrix SpMmDenseT(const CsrMatrix& a, const Matrix& x,
                  exec::ExecContext* ctx) {
  FREEHGC_CHECK(a.rows() == x.rows());
  FREEHGC_TRACE_SPAN("spmm_dense_t");
  exec::ExecContext& ex = exec::Resolve(ctx);
  return SpMmDense(Transpose(a, &ex), x, &ex);
}

void SpMvInto(const CsrMatrix& a, const std::vector<float>& x,
              std::vector<float>& y, exec::ExecContext* ctx) {
  FREEHGC_CHECK(static_cast<int32_t>(x.size()) == a.cols());
  y.resize(static_cast<size_t>(a.rows()));
  exec::Resolve(ctx).ParallelFor(
      a.rows(), kRowScaleGrain,
      [&](int64_t begin, int64_t end, exec::Workspace&) {
        for (int64_t r = begin; r < end; ++r) {
          auto idx = a.RowIndices(static_cast<int32_t>(r));
          auto val = a.RowValues(static_cast<int32_t>(r));
          float acc = 0.0f;
          for (size_t k = 0; k < idx.size(); ++k) {
            acc += val[k] * x[static_cast<size_t>(idx[k])];
          }
          y[static_cast<size_t>(r)] = acc;
        }
      });
}

std::vector<float> SpMv(const CsrMatrix& a, const std::vector<float>& x,
                        exec::ExecContext* ctx) {
  std::vector<float> y;
  SpMvInto(a, x, y, ctx);
  return y;
}

std::vector<float> SpMvT(const CsrMatrix& a, const std::vector<float>& x,
                         exec::ExecContext* ctx) {
  FREEHGC_CHECK(static_cast<int32_t>(x.size()) == a.rows());
  exec::ExecContext& ex = exec::Resolve(ctx);
  return SpMv(Transpose(a, &ex), x, &ex);
}

CsrMatrix Submatrix(const CsrMatrix& a, const std::vector<int32_t>& row_keep,
                    const std::vector<int32_t>& col_keep) {
  std::vector<int32_t> col_map(static_cast<size_t>(a.cols()), -1);
  for (size_t i = 0; i < col_keep.size(); ++i) {
    FREEHGC_CHECK(col_keep[i] >= 0 && col_keep[i] < a.cols());
    col_map[static_cast<size_t>(col_keep[i])] = static_cast<int32_t>(i);
  }
  std::vector<CooEntry> entries;
  for (size_t ri = 0; ri < row_keep.size(); ++ri) {
    const int32_t r = row_keep[ri];
    FREEHGC_CHECK(r >= 0 && r < a.rows());
    auto idx = a.RowIndices(r);
    auto val = a.RowValues(r);
    for (size_t k = 0; k < idx.size(); ++k) {
      const int32_t mapped = col_map[static_cast<size_t>(idx[k])];
      if (mapped >= 0) {
        entries.push_back({static_cast<int32_t>(ri), mapped, val[k]});
      }
    }
  }
  auto res = CsrMatrix::FromCoo(static_cast<int32_t>(row_keep.size()),
                                static_cast<int32_t>(col_keep.size()),
                                std::move(entries));
  FREEHGC_CHECK(res.ok());
  return std::move(res).value();
}

CsrMatrix AddElementwise(const CsrMatrix& a, const CsrMatrix& b) {
  FREEHGC_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  std::vector<int64_t> indptr(static_cast<size_t>(a.rows()) + 1, 0);
  std::vector<int32_t> indices;
  std::vector<float> values;
  indices.reserve(static_cast<size_t>(a.nnz() + b.nnz()));
  values.reserve(static_cast<size_t>(a.nnz() + b.nnz()));
  for (int32_t r = 0; r < a.rows(); ++r) {
    auto ai = a.RowIndices(r);
    auto av = a.RowValues(r);
    auto bi = b.RowIndices(r);
    auto bv = b.RowValues(r);
    size_t i = 0, j = 0;
    while (i < ai.size() || j < bi.size()) {
      int32_t ci = i < ai.size() ? ai[i] : a.cols();
      int32_t cj = j < bi.size() ? bi[j] : a.cols();
      if (ci < cj) {
        indices.push_back(ci);
        values.push_back(av[i++]);
      } else if (cj < ci) {
        indices.push_back(cj);
        values.push_back(bv[j++]);
      } else {
        indices.push_back(ci);
        values.push_back(av[i++] + bv[j++]);
      }
    }
    indptr[static_cast<size_t>(r) + 1] = static_cast<int64_t>(indices.size());
  }
  auto res = CsrMatrix::FromParts(a.rows(), a.cols(), std::move(indptr),
                                  std::move(indices), std::move(values));
  FREEHGC_CHECK(res.ok());
  return std::move(res).value();
}

CsrMatrix Symmetrize(const CsrMatrix& a) {
  FREEHGC_CHECK(a.rows() == a.cols());
  return AddElementwise(a, Transpose(a));
}

std::vector<float> PprScores(const CsrMatrix& a,
                             const std::vector<float>& teleport, float alpha,
                             int max_iters, float tol,
                             exec::ExecContext* ctx, bool symmetric) {
  FREEHGC_CHECK(a.rows() == a.cols());
  FREEHGC_CHECK(static_cast<int32_t>(teleport.size()) == a.rows());
  FREEHGC_TRACE_SPAN("ppr");
  static obs::Counter& iters_ctr =
      obs::MetricsRegistry::Global().GetCounter("ppr.iterations");
  exec::ExecContext& ex = exec::Resolve(ctx);
  // A^T pi as a row-parallel gather over the materialized transpose: the
  // per-element accumulation order (ascending source row) matches the
  // sequential column-scatter exactly, so the refactor is bit-preserving.
  // A bit-exactly symmetric input (caller-asserted) needs no transpose at
  // all — a^T == a including value order, so iterating over `a` itself
  // produces the same bits without the transposed copy.
  const CsrMatrix at_owned =
      symmetric ? CsrMatrix() : Transpose(a, &ex);
  const CsrMatrix& at = symmetric ? a : at_owned;
  std::vector<float> pi = teleport;
  std::vector<float> propagated;  // reused across iterations
  for (int it = 0; it < max_iters; ++it) {
    // pi_next = alpha * teleport + (1 - alpha) * A^T pi
    iters_ctr.Increment();
    SpMvInto(at, pi, propagated, &ex);
    const double delta = ex.ParallelReduce(
        static_cast<int64_t>(pi.size()), kAxpyGrain, 0.0,
        [&](int64_t begin, int64_t end, exec::Workspace&) {
          double d = 0.0;
          for (int64_t i = begin; i < end; ++i) {
            const float next = alpha * teleport[static_cast<size_t>(i)] +
                               (1.0f - alpha) *
                                   propagated[static_cast<size_t>(i)];
            d += std::fabs(next - pi[static_cast<size_t>(i)]);
            pi[static_cast<size_t>(i)] = next;
          }
          return d;
        },
        [](double acc, double part) { return acc + part; });
    if (delta < static_cast<double>(tol)) break;
  }
  return pi;
}

}  // namespace freehgc::sparse
