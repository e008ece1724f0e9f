#include "viz/tsne.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/logging.h"
#include "common/rng.h"

namespace freehgc::viz {

namespace {

/// Binary-searches the Gaussian bandwidth of row i so the conditional
/// distribution's perplexity matches the target; writes P(j|i).
void RowAffinities(const std::vector<double>& sqdist, int64_t i,
                   double perplexity, std::vector<double>& p_row) {
  const int64_t n = static_cast<int64_t>(p_row.size());
  const double target_entropy = std::log(perplexity);
  double beta = 1.0, beta_lo = 0.0,
         beta_hi = std::numeric_limits<double>::infinity();
  for (int it = 0; it < 50; ++it) {
    double sum = 0.0;
    for (int64_t j = 0; j < n; ++j) {
      p_row[static_cast<size_t>(j)] =
          j == i ? 0.0
                 : std::exp(-beta * sqdist[static_cast<size_t>(j)]);
      sum += p_row[static_cast<size_t>(j)];
    }
    if (sum <= 0) sum = 1e-12;
    double entropy = 0.0;
    for (int64_t j = 0; j < n; ++j) {
      p_row[static_cast<size_t>(j)] /= sum;
      const double p = p_row[static_cast<size_t>(j)];
      if (p > 1e-12) entropy -= p * std::log(p);
    }
    const double diff = entropy - target_entropy;
    if (std::fabs(diff) < 1e-5) break;
    if (diff > 0) {
      beta_lo = beta;
      beta = std::isinf(beta_hi) ? beta * 2.0 : (beta + beta_hi) / 2.0;
    } else {
      beta_hi = beta;
      beta = (beta + beta_lo) / 2.0;
    }
  }
}

}  // namespace

Matrix Tsne(const Matrix& x, const TsneOptions& opts) {
  const int64_t n = x.rows();
  if (n == 0) return Matrix(0, 2);
  if (n == 1) return Matrix(1, 2);

  // Pairwise squared distances.
  std::vector<std::vector<double>> sqdist(
      static_cast<size_t>(n), std::vector<double>(static_cast<size_t>(n)));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i + 1; j < n; ++j) {
      const double d =
          static_cast<double>(dense::RowSquaredDistance(x, i, x, j));
      sqdist[static_cast<size_t>(i)][static_cast<size_t>(j)] = d;
      sqdist[static_cast<size_t>(j)][static_cast<size_t>(i)] = d;
    }
  }

  // Symmetric affinities: p_ij = (p_j|i + p_i|j) / 2n.
  const double perplexity =
      std::min(opts.perplexity, static_cast<double>(n - 1) / 3.0);
  std::vector<std::vector<double>> p(
      static_cast<size_t>(n), std::vector<double>(static_cast<size_t>(n)));
  std::vector<double> row(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    RowAffinities(sqdist[static_cast<size_t>(i)], i, perplexity, row);
    for (int64_t j = 0; j < n; ++j) {
      p[static_cast<size_t>(i)][static_cast<size_t>(j)] =
          row[static_cast<size_t>(j)];
    }
  }
  double p_sum = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      const double sym = (p[static_cast<size_t>(i)][static_cast<size_t>(j)] +
                          p[static_cast<size_t>(j)][static_cast<size_t>(i)]) /
                         (2.0 * n);
      p[static_cast<size_t>(i)][static_cast<size_t>(j)] = sym;
      p_sum += sym;
    }
  }
  (void)p_sum;

  // Gradient descent with momentum.
  Rng rng(opts.seed);
  Matrix y(n, 2);
  y.FillGaussian(rng, 1e-2f);
  Matrix velocity(n, 2);
  std::vector<double> q_row(static_cast<size_t>(n));

  for (int iter = 0; iter < opts.iterations; ++iter) {
    const double exaggeration =
        iter < opts.exaggeration_iters ? opts.early_exaggeration : 1.0;
    const double momentum = iter < 100 ? 0.5 : 0.8;

    // Q distribution (Student-t kernel) normalizer.
    double z = 0.0;
    std::vector<std::vector<double>> num(
        static_cast<size_t>(n),
        std::vector<double>(static_cast<size_t>(n), 0.0));
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = i + 1; j < n; ++j) {
        const double dx = y.At(i, 0) - y.At(j, 0);
        const double dy = y.At(i, 1) - y.At(j, 1);
        const double t = 1.0 / (1.0 + dx * dx + dy * dy);
        num[static_cast<size_t>(i)][static_cast<size_t>(j)] = t;
        num[static_cast<size_t>(j)][static_cast<size_t>(i)] = t;
        z += 2.0 * t;
      }
    }
    if (z <= 0) z = 1e-12;

    for (int64_t i = 0; i < n; ++i) {
      double g0 = 0.0, g1 = 0.0;
      for (int64_t j = 0; j < n; ++j) {
        if (i == j) continue;
        const double t = num[static_cast<size_t>(i)][static_cast<size_t>(j)];
        const double q = std::max(t / z, 1e-12);
        const double mult =
            (exaggeration *
                 p[static_cast<size_t>(i)][static_cast<size_t>(j)] -
             q) *
            t;
        g0 += mult * (y.At(i, 0) - y.At(j, 0));
        g1 += mult * (y.At(i, 1) - y.At(j, 1));
      }
      velocity.At(i, 0) = static_cast<float>(
          momentum * velocity.At(i, 0) - opts.learning_rate * 4.0 * g0);
      velocity.At(i, 1) = static_cast<float>(
          momentum * velocity.At(i, 1) - opts.learning_rate * 4.0 * g1);
    }
    for (int64_t i = 0; i < n; ++i) {
      y.At(i, 0) += velocity.At(i, 0);
      y.At(i, 1) += velocity.At(i, 1);
    }
  }
  return y;
}

DispersionStats ComputeDispersion(const Matrix& embedding, int grid) {
  DispersionStats out;
  const int64_t n = embedding.rows();
  out.count = n;
  if (n < 2) return out;
  double total = 0.0;
  int64_t pairs = 0;
  float min_x = embedding.At(0, 0), max_x = min_x;
  float min_y = embedding.At(0, 1), max_y = min_y;
  for (int64_t i = 0; i < n; ++i) {
    min_x = std::min(min_x, embedding.At(i, 0));
    max_x = std::max(max_x, embedding.At(i, 0));
    min_y = std::min(min_y, embedding.At(i, 1));
    max_y = std::max(max_y, embedding.At(i, 1));
    for (int64_t j = i + 1; j < n; ++j) {
      total += std::sqrt(static_cast<double>(
          dense::RowSquaredDistance(embedding, i, embedding, j)));
      ++pairs;
    }
  }
  out.mean_pairwise_distance = total / static_cast<double>(pairs);

  std::vector<uint8_t> cells(static_cast<size_t>(grid * grid), 0);
  const float span_x = std::max(1e-6f, max_x - min_x);
  const float span_y = std::max(1e-6f, max_y - min_y);
  for (int64_t i = 0; i < n; ++i) {
    int cx = static_cast<int>((embedding.At(i, 0) - min_x) / span_x *
                              static_cast<float>(grid));
    int cy = static_cast<int>((embedding.At(i, 1) - min_y) / span_y *
                              static_cast<float>(grid));
    cx = std::clamp(cx, 0, grid - 1);
    cy = std::clamp(cy, 0, grid - 1);
    cells[static_cast<size_t>(cy * grid + cx)] = 1;
  }
  int64_t occupied = 0;
  for (uint8_t c : cells) occupied += c;
  out.grid_coverage =
      static_cast<double>(occupied) / static_cast<double>(grid * grid);
  return out;
}

bool WriteScatterCsv(const Matrix& embedding,
                     const std::vector<std::string>& labels,
                     const std::string& path) {
  FREEHGC_CHECK(static_cast<int64_t>(labels.size()) == embedding.rows());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "x,y,label\n");
  for (int64_t i = 0; i < embedding.rows(); ++i) {
    std::fprintf(f, "%.4f,%.4f,%s\n", embedding.At(i, 0), embedding.At(i, 1),
                 labels[static_cast<size_t>(i)].c_str());
  }
  std::fclose(f);
  return true;
}

}  // namespace freehgc::viz
