#include "graph/serialize.h"

#include <cstdio>
#include <cstring>
#include <memory>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "graph/serialize_internal.h"

namespace freehgc {

namespace {

using serialize_internal::ByteReader;
using serialize_internal::FilePtr;
using serialize_internal::kMagic;
using serialize_internal::kVersionLegacy;
using serialize_internal::kVersionV2;
using serialize_internal::kVersionV3;
using serialize_internal::ReadPod;
using serialize_internal::ReadString;

// The v1/v2 body reader, kept for containers already on disk (nothing
// writes these formats any more). It parses from an in-memory view with
// bounds checks, so the version-2 size and checksum are verified before
// any graph state is built.

template <typename T>
bool ReadVec(ByteReader& r, std::vector<T>* v) {
  uint64_t n = 0;
  if (!ReadPod(r, &n) || n > (1ull << 33)) return false;
  v->resize(static_cast<size_t>(n));
  return r.Read(v->data(), static_cast<size_t>(n) * sizeof(T));
}

Result<CsrMatrix> ReadCsr(ByteReader& r) {
  int32_t rows = 0, cols = 0;
  std::vector<int64_t> indptr;
  std::vector<int32_t> indices;
  std::vector<float> values;
  if (!ReadPod(r, &rows) || !ReadPod(r, &cols) || !ReadVec(r, &indptr) ||
      !ReadVec(r, &indices) || !ReadVec(r, &values)) {
    return Status::Internal("truncated CSR block");
  }
  return CsrMatrix::FromParts(rows, cols, std::move(indptr),
                              std::move(indices), std::move(values));
}

Result<Matrix> ReadMatrix(ByteReader& r) {
  int64_t rows = 0, cols = 0;
  if (!ReadPod(r, &rows) || !ReadPod(r, &cols) || rows < 0 || cols < 0 ||
      rows * cols > (1ll << 33)) {
    return Status::Internal("truncated matrix header");
  }
  Matrix m(rows, cols);
  if (!r.Read(m.data(), static_cast<size_t>(m.size()) * sizeof(float))) {
    return Status::Internal("truncated matrix body");
  }
  return m;
}

/// Parses the body (everything past the header fields).
Result<HeteroGraph> ReadBody(ByteReader& r) {
  HeteroGraph g;
  int32_t num_types = 0;
  if (!ReadPod(r, &num_types) || num_types < 0 || num_types > 4096) {
    return Status::Internal("bad type count");
  }
  for (int32_t t = 0; t < num_types; ++t) {
    std::string name;
    int32_t count = 0;
    if (!ReadString(r, &name) || !ReadPod(r, &count)) {
      return Status::Internal("truncated type table");
    }
    auto added = g.AddNodeType(name, count);
    if (!added.ok()) return added.status();
  }
  int32_t num_rel = 0;
  if (!ReadPod(r, &num_rel) || num_rel < 0 || num_rel > 65536) {
    return Status::Internal("bad relation count");
  }
  for (int32_t rel_i = 0; rel_i < num_rel; ++rel_i) {
    std::string name;
    TypeId src = -1, dst = -1;
    if (!ReadString(r, &name) || !ReadPod(r, &src) || !ReadPod(r, &dst)) {
      return Status::Internal("truncated relation header");
    }
    FREEHGC_ASSIGN_OR_RETURN(CsrMatrix adj, ReadCsr(r));
    auto added = g.AddRelation(name, src, dst, std::move(adj));
    if (!added.ok()) return added.status();
  }
  for (int32_t t = 0; t < num_types; ++t) {
    uint8_t has = 0;
    if (!ReadPod(r, &has)) return Status::Internal("truncated flags");
    if (has) {
      FREEHGC_ASSIGN_OR_RETURN(Matrix m, ReadMatrix(r));
      FREEHGC_RETURN_IF_ERROR(g.SetFeatures(t, std::move(m)));
    }
  }
  int32_t target = -1;
  if (!ReadPod(r, &target)) return Status::Internal("truncated target");
  if (target >= 0) {
    int32_t num_classes = 0;
    std::vector<int32_t> labels, train, val, test;
    if (!ReadPod(r, &num_classes) || !ReadVec(r, &labels) ||
        !ReadVec(r, &train) || !ReadVec(r, &val) || !ReadVec(r, &test)) {
      return Status::Internal("truncated label block");
    }
    FREEHGC_RETURN_IF_ERROR(g.SetTarget(target, std::move(labels),
                                        num_classes));
    FREEHGC_RETURN_IF_ERROR(g.SetSplit(std::move(train), std::move(val),
                                       std::move(test)));
  }
  FREEHGC_RETURN_IF_ERROR(g.Validate());
  return g;
}

}  // namespace

Result<HeteroGraph> DeserializeHeteroGraph(std::string_view bytes) {
  ByteReader r(bytes);
  uint32_t magic = 0, version = 0;
  if (!ReadPod(r, &magic) || magic != kMagic) {
    return Status::InvalidArgument("not a FreeHGC graph container");
  }
  if (!ReadPod(r, &version)) {
    return Status::InvalidArgument("truncated graph container header");
  }
  if (version == kVersionV3) {
    // In-memory v3 buffers are transient, so the parse deep-copies into
    // owned storage instead of handing out views.
    return serialize_internal::ParseV3Memory(bytes);
  }
  size_t body_off = sizeof(magic) + sizeof(version);
  if (version == kVersionV2) {
    uint64_t size = 0;
    uint32_t crc = 0;
    if (!ReadPod(r, &size) || !ReadPod(r, &crc)) {
      return Status::InvalidArgument("truncated graph container header");
    }
    body_off += sizeof(size) + sizeof(crc);
    if (bytes.size() - body_off != size) {
      return Status::InvalidArgument(StrFormat(
          "truncated graph container: body has %zu of %llu bytes",
          bytes.size() - body_off, static_cast<unsigned long long>(size)));
    }
    const uint32_t actual = Crc32(bytes.data() + body_off, size);
    if (actual != crc) {
      return Status::InvalidArgument(StrFormat(
          "graph container checksum mismatch (stored %08x, computed %08x)",
          crc, actual));
    }
  } else if (version != kVersionLegacy) {
    return Status::InvalidArgument("unsupported graph file version");
  }
  // Version 1 has no size/checksum: the body parser's bounds checks are
  // the only truncation defense (kept for old files).
  return ReadBody(r);
}

Result<HeteroGraph> LoadHeteroGraph(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::NotFound("cannot open: " + path);
  // Peek the header: v3 containers are mapped, never slurped to heap.
  uint32_t head[2] = {0, 0};
  const size_t head_n = std::fread(head, 1, sizeof(head), f.get());
  if (head_n == sizeof(head) && head[0] == kMagic && head[1] == kVersionV3) {
    f.reset();
    FREEHGC_ASSIGN_OR_RETURN(MappedGraph mg, MapHeteroGraphDetailed(path));
    return std::move(mg.graph);
  }
  std::string bytes(reinterpret_cast<const char*>(head), head_n);
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f.get())) > 0) {
    bytes.append(buf, n);
  }
  if (std::ferror(f.get()) != 0) {
    return Status::Internal("read error: " + path);
  }
  auto g = DeserializeHeteroGraph(bytes);
  if (!g.ok() &&
      g.status().message().rfind("not a FreeHGC graph container", 0) == 0) {
    return Status::InvalidArgument("not a FreeHGC graph file: " + path);
  }
  return g;
}

namespace serialize_internal {

namespace {

template <typename T>
bool ReadPodF(std::FILE* f, T* v) {
  return std::fread(v, 1, sizeof(T), f) == sizeof(T);
}

bool ReadStringF(std::FILE* f, std::string* s) {
  uint32_t n = 0;
  if (!ReadPodF(f, &n) || n > (1u << 20)) return false;
  s->resize(n);
  return std::fread(s->data(), 1, n, f) == n;
}

/// Skips a length-prefixed array, returning its element count.
template <typename T>
bool SkipArrayF(std::FILE* f, uint64_t* count) {
  uint64_t n = 0;
  if (!ReadPodF(f, &n) || n > (1ull << 33)) return false;
  *count = n;
  return std::fseek(f, static_cast<long>(n * sizeof(T)), SEEK_CUR) == 0;
}

}  // namespace

Result<ContainerSummary> InspectLegacyContainer(const std::string& path,
                                                uint32_t version,
                                                std::FILE* f) {
  ContainerSummary out;
  out.version = version;
  out.crc_ok = true;  // v1 has no checksum to fail
  // The v1/v2 stream: magic, version, [size, crc (v2)], body.
  long body_off = static_cast<long>(2 * sizeof(uint32_t));
  if (version == kVersionV2) {
    uint64_t size = 0;
    uint32_t crc = 0;
    if (std::fseek(f, body_off, SEEK_SET) != 0 || !ReadPodF(f, &size) ||
        !ReadPodF(f, &crc)) {
      return Status::InvalidArgument("truncated graph container header");
    }
    body_off += static_cast<long>(sizeof(size) + sizeof(crc));
    // First pass: stream the body through the CRC in fixed-size chunks.
    uint32_t actual = 0;
    uint64_t seen = 0;
    char buf[1 << 16];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      actual = Crc32(buf, n, actual);
      seen += n;
    }
    if (std::ferror(f) != 0) return Status::Internal("read error: " + path);
    out.crc_ok = (seen == size && actual == crc);
  }
  // Second (or only) pass: walk the body structure, fseeking over array
  // payloads so nothing large is materialized.
  if (std::fseek(f, body_off, SEEK_SET) != 0) {
    return Status::InvalidArgument("truncated graph container: " + path);
  }
  const auto truncated = [&path]() {
    return Status::InvalidArgument("truncated graph container body: " + path);
  };
  int32_t num_types = 0;
  if (!ReadPodF(f, &num_types) || num_types < 0 || num_types > 4096) {
    return truncated();
  }
  for (int32_t t = 0; t < num_types; ++t) {
    std::string name;
    int32_t count = 0;
    if (!ReadStringF(f, &name) || !ReadPodF(f, &count)) return truncated();
    out.types.emplace_back(std::move(name), count);
  }
  int32_t num_rel = 0;
  if (!ReadPodF(f, &num_rel) || num_rel < 0 || num_rel > 65536) {
    return truncated();
  }
  for (int32_t i = 0; i < num_rel; ++i) {
    RelationSummary rs;
    uint64_t indptr_n = 0, nnz = 0, values_n = 0;
    if (!ReadStringF(f, &rs.name) || !ReadPodF(f, &rs.src_type) ||
        !ReadPodF(f, &rs.dst_type) || !ReadPodF(f, &rs.rows) ||
        !ReadPodF(f, &rs.cols) || !SkipArrayF<int64_t>(f, &indptr_n) ||
        !SkipArrayF<int32_t>(f, &nnz) || !SkipArrayF<float>(f, &values_n)) {
      return truncated();
    }
    rs.nnz = static_cast<int64_t>(nnz);
    out.relations.push_back(std::move(rs));
  }
  if (std::fseek(f, 0, SEEK_END) == 0) {
    out.file_bytes = static_cast<uint64_t>(std::ftell(f));
  }
  return out;
}

}  // namespace serialize_internal

namespace {

Result<std::vector<std::vector<std::string>>> ReadCsvRows(
    const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "r"));
  if (!f) return Status::NotFound("cannot open: " + path);
  std::vector<std::vector<std::string>> rows;
  std::string line;
  int c;
  while ((c = std::fgetc(f.get())) != EOF) {
    if (c == '\n') {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) rows.push_back(Split(line, ','));
      line.clear();
    } else {
      line.push_back(static_cast<char>(c));
    }
  }
  if (!line.empty()) rows.push_back(Split(line, ','));
  return rows;
}

}  // namespace

Result<HeteroGraph> LoadHeteroGraphCsv(const std::string& dir,
                                       uint64_t seed) {
  HeteroGraph g;
  std::vector<int32_t> feat_dims;
  {
    FREEHGC_ASSIGN_OR_RETURN(auto rows, ReadCsvRows(dir + "/types.csv"));
    for (const auto& row : rows) {
      if (row.size() != 3) {
        return Status::InvalidArgument("types.csv rows need name,count,dim");
      }
      FREEHGC_ASSIGN_OR_RETURN(
          TypeId id, g.AddNodeType(row[0], std::atoi(row[1].c_str())));
      (void)id;
      feat_dims.push_back(std::atoi(row[2].c_str()));
    }
  }
  {
    FREEHGC_ASSIGN_OR_RETURN(auto rows, ReadCsvRows(dir + "/edges.csv"));
    // Group by (relation, src_type, dst_type).
    struct Key {
      std::string rel, src, dst;
    };
    std::vector<Key> order;
    std::vector<std::vector<CooEntry>> entries;
    auto find_group = [&](const std::string& rel, const std::string& src,
                          const std::string& dst) -> size_t {
      for (size_t i = 0; i < order.size(); ++i) {
        if (order[i].rel == rel) return i;
      }
      order.push_back({rel, src, dst});
      entries.emplace_back();
      return order.size() - 1;
    };
    for (const auto& row : rows) {
      if (row.size() != 5) {
        return Status::InvalidArgument(
            "edges.csv rows need relation,src_type,dst_type,src_id,dst_id");
      }
      const size_t gi = find_group(row[0], row[1], row[2]);
      entries[gi].push_back({std::atoi(row[3].c_str()),
                             std::atoi(row[4].c_str()), 1.0f});
    }
    for (size_t i = 0; i < order.size(); ++i) {
      FREEHGC_ASSIGN_OR_RETURN(TypeId src, g.TypeByName(order[i].src));
      FREEHGC_ASSIGN_OR_RETURN(TypeId dst, g.TypeByName(order[i].dst));
      FREEHGC_ASSIGN_OR_RETURN(
          CsrMatrix adj, CsrMatrix::FromCoo(g.NodeCount(src),
                                            g.NodeCount(dst),
                                            std::move(entries[i])));
      auto added = g.AddRelation(order[i].rel, src, dst, std::move(adj));
      if (!added.ok()) return added.status();
    }
    g.EnsureReverseRelations();
  }
  for (TypeId t = 0; t < g.NumNodeTypes(); ++t) {
    const std::string path = dir + "/features_" + g.TypeName(t) + ".csv";
    auto rows = ReadCsvRows(path);
    if (!rows.ok()) continue;  // features optional per type
    if (static_cast<int32_t>(rows->size()) != g.NodeCount(t)) {
      return Status::InvalidArgument("feature row count mismatch for " +
                                     g.TypeName(t));
    }
    const int64_t dim = feat_dims[static_cast<size_t>(t)];
    Matrix m(g.NodeCount(t), dim);
    for (size_t i = 0; i < rows->size(); ++i) {
      if (static_cast<int64_t>((*rows)[i].size()) != dim) {
        return Status::InvalidArgument("feature dim mismatch for " +
                                       g.TypeName(t));
      }
      for (int64_t d = 0; d < dim; ++d) {
        m.At(static_cast<int64_t>(i), d) =
            static_cast<float>(std::atof((*rows)[i][static_cast<size_t>(d)]
                                             .c_str()));
      }
    }
    FREEHGC_RETURN_IF_ERROR(g.SetFeatures(t, std::move(m)));
  }
  {
    FREEHGC_ASSIGN_OR_RETURN(auto rows, ReadCsvRows(dir + "/labels.csv"));
    if (rows.empty() || rows[0].size() != 3 || rows[0][0] != "target") {
      return Status::InvalidArgument(
          "labels.csv must start with 'target,<type>,<num_classes>'");
    }
    FREEHGC_ASSIGN_OR_RETURN(TypeId target, g.TypeByName(rows[0][1]));
    const int32_t num_classes = std::atoi(rows[0][2].c_str());
    std::vector<int32_t> labels(static_cast<size_t>(g.NodeCount(target)), 0);
    for (size_t i = 1; i < rows.size(); ++i) {
      if (rows[i].size() != 2) {
        return Status::InvalidArgument("labels.csv rows need id,label");
      }
      const int32_t id = std::atoi(rows[i][0].c_str());
      if (id < 0 || id >= g.NodeCount(target)) {
        return Status::OutOfRange("label id out of range");
      }
      labels[static_cast<size_t>(id)] = std::atoi(rows[i][1].c_str());
    }
    FREEHGC_RETURN_IF_ERROR(g.SetTarget(target, std::move(labels),
                                        num_classes));
    // Deterministic 24/6/70 split, matching the HGB protocol.
    const int32_t n = g.NodeCount(target);
    std::vector<int32_t> perm(static_cast<size_t>(n));
    for (int32_t i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;
    Rng rng(seed);
    rng.Shuffle(perm);
    const int32_t n_train = static_cast<int32_t>(0.24 * n);
    const int32_t n_val = static_cast<int32_t>(0.06 * n);
    FREEHGC_RETURN_IF_ERROR(g.SetSplit(
        {perm.begin(), perm.begin() + n_train},
        {perm.begin() + n_train, perm.begin() + n_train + n_val},
        {perm.begin() + n_train + n_val, perm.end()}));
  }
  FREEHGC_RETURN_IF_ERROR(g.Validate());
  return g;
}

}  // namespace freehgc
