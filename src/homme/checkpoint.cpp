#include "homme/checkpoint.hpp"

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

namespace homme {

using mesh::kNpp;

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

namespace {

/// Slicing-by-8 tables: kCrcTables[0] is the bytewise table, and
/// kCrcTables[k][b] is the CRC of byte b followed by k zero bytes, so
/// eight table lookups fold eight input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int b = 0; b < 8; ++b) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// Bytes p[0..3] as a little-endian word, whatever the host byte order
/// (compilers fold this to one load on little-endian targets).
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n) {
  const CrcTables& t = kCrcTables;
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint32_t> chunk_crcs(const State& s) {
  std::vector<std::uint32_t> crcs;
  crcs.reserve(s.size() * kChunksPerElement);
  for (std::size_t id = 0; id < s.size() * kChunksPerElement; ++id) {
    const Chunk& c = state_chunk(s, id);
    crcs.push_back(crc32(c.data(), c.size_bytes()));
  }
  return crcs;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t kFlagLimitTracers = 1u << 0;
constexpr std::uint32_t kFlagHypervisOn = 1u << 1;
constexpr std::uint32_t kFlagMoist = 1u << 2;

/// A record's count and CRC around its payload (see put_record).
constexpr std::size_t kRecordBytes =
    sizeof(std::uint64_t) + sizeof(std::uint32_t);

template <typename T>
void put(std::vector<std::uint8_t>& out, T v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

void put_info(std::vector<std::uint8_t>& out, const CheckpointInfo& info) {
  std::uint32_t flags = 0;
  if (info.config.limit_tracers) flags |= kFlagLimitTracers;
  if (info.config.hypervis_on) flags |= kFlagHypervisOn;
  if (info.dims.moist) flags |= kFlagMoist;
  put<std::uint64_t>(out, info.nelem);
  put<std::int32_t>(out, info.dims.nlev);
  put<std::int32_t>(out, info.dims.qsize);
  put<std::uint32_t>(out, flags);
  put<std::int32_t>(out, info.config.remap_freq);
  put<std::int64_t>(out, info.step_count);
  put<std::uint64_t>(out, info.rng_seed);
  put<double>(out, info.config.dt);
  put<double>(out, info.config.nu);
}

/// One (count, doubles, CRC) record; \p crc is the chunk's CRC, already
/// computed by the caller's dirty scan or chunk_crcs().
void put_record(std::vector<std::uint8_t>& out, const Chunk& c,
                std::uint32_t crc) {
  put<std::uint64_t>(out, c.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(c.data());
  out.insert(out.end(), p, p + c.size_bytes());
  put<std::uint32_t>(out, crc);
}

void check_nelem(const CheckpointInfo& info, const State& s,
                 const char* what) {
  if (info.nelem != s.size()) {
    throw CheckpointError(std::string(what) + ": info.nelem (" +
                          std::to_string(info.nelem) + ") != state size (" +
                          std::to_string(s.size()) + ")");
  }
}

/// The SWCK image of \p s, built in \p out (cleared and reserved to the
/// exact size), each record's CRC taken from \p crcs (= chunk_crcs(s)).
void build_full_image(std::vector<std::uint8_t>& out,
                      const CheckpointInfo& info, const State& s,
                      std::span<const std::uint32_t> crcs) {
  check_nelem(info, s, "checkpoint");
  std::size_t record_bytes = 0;
  for (std::size_t id = 0; id < crcs.size(); ++id) {
    record_bytes += kRecordBytes + state_chunk(s, id).size_bytes();
  }
  out.clear();
  put<std::uint32_t>(out, kCheckpointMagic);
  put<std::uint32_t>(out, kCheckpointVersion);
  put_info(out, info);
  put<std::uint32_t>(out, crc32(out.data(), out.size()));
  out.reserve(out.size() + record_bytes);
  for (std::size_t id = 0; id < crcs.size(); ++id) {
    put_record(out, state_chunk(s, id), crcs[id]);
  }
}

/// The SWDK record of the chunks of \p s whose CRC differs from \p crcs,
/// built in \p out (cleared and reserved to the exact size). Each chunk
/// is hashed once: the dirty scan's CRC updates \p crcs and is the
/// record's payload CRC. Returns the record count.
std::uint64_t build_delta_image(std::vector<std::uint8_t>& out,
                                const CheckpointInfo& info, const State& s,
                                std::uint64_t base_seq, std::uint64_t seq,
                                std::vector<std::uint32_t>& crcs) {
  check_nelem(info, s, "delta checkpoint");
  const std::size_t nchunks = s.size() * kChunksPerElement;
  if (crcs.size() != nchunks) {
    throw CheckpointError(
        "delta checkpoint: CRC cache has " + std::to_string(crcs.size()) +
        " entries, state has " + std::to_string(nchunks) + " chunks");
  }

  // Find the dirty set first (record count goes into the header).
  std::vector<std::uint64_t> dirty;
  std::size_t record_bytes = 0;
  for (std::size_t id = 0; id < nchunks; ++id) {
    const Chunk& c = state_chunk(s, id);
    const std::uint32_t crc = crc32(c.data(), c.size_bytes());
    if (crc != crcs[id]) {
      dirty.push_back(id);
      crcs[id] = crc;
      record_bytes += sizeof(std::uint64_t) + kRecordBytes + c.size_bytes();
    }
  }

  out.clear();
  put<std::uint32_t>(out, kDeltaMagic);
  put<std::uint32_t>(out, kDeltaVersion);
  put<std::uint64_t>(out, base_seq);
  put<std::uint64_t>(out, seq);
  put_info(out, info);
  put<std::uint64_t>(out, dirty.size());
  put<std::uint32_t>(out, crc32(out.data(), out.size()));
  out.reserve(out.size() + record_bytes);
  for (const std::uint64_t id : dirty) {
    put<std::uint64_t>(out, id);
    put_record(out, state_chunk(s, static_cast<std::size_t>(id)),
               crcs[static_cast<std::size_t>(id)]);
  }
  return dirty.size();
}

struct Reader {
  std::span<const std::uint8_t> buf;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    if (pos + n > buf.size()) {
      throw CheckpointError("checkpoint: truncated image (need " +
                            std::to_string(n) + " bytes at offset " +
                            std::to_string(pos) + ", have " +
                            std::to_string(buf.size() - pos) + ")");
    }
  }
  template <typename T>
  T get() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, buf.data() + pos, sizeof(T));
    pos += sizeof(T);
    return v;
  }
  const std::uint8_t* raw(std::size_t n) {
    need(n);
    const std::uint8_t* p = buf.data() + pos;
    pos += n;
    return p;
  }
};

/// Inverse of put_info.
CheckpointInfo get_info(Reader& r) {
  CheckpointInfo info;
  info.nelem = r.get<std::uint64_t>();
  info.dims.nlev = r.get<std::int32_t>();
  info.dims.qsize = r.get<std::int32_t>();
  const auto flags = r.get<std::uint32_t>();
  info.config.remap_freq = r.get<std::int32_t>();
  info.step_count = r.get<std::int64_t>();
  info.rng_seed = r.get<std::uint64_t>();
  info.config.dt = r.get<double>();
  info.config.nu = r.get<double>();
  info.config.limit_tracers = (flags & kFlagLimitTracers) != 0;
  info.config.hypervis_on = (flags & kFlagHypervisOn) != 0;
  info.dims.moist = (flags & kFlagMoist) != 0;
  return info;
}

void get_payload(Reader& r, Chunk& field, std::size_t expected,
                 const char* name, std::size_t elem) {
  const auto count = r.get<std::uint64_t>();
  if (count != expected) {
    throw CheckpointError(
        "checkpoint: field " + std::string(name) + " of element " +
        std::to_string(elem) + " has " + std::to_string(count) +
        " values, expected " + std::to_string(expected));
  }
  const std::size_t bytes = static_cast<std::size_t>(count) * sizeof(double);
  const std::uint8_t* p = r.raw(bytes);
  const auto stored = r.get<std::uint32_t>();
  const std::uint32_t actual = crc32(p, bytes);
  if (stored != actual) {
    throw CheckpointError(
        "checkpoint: CRC mismatch in field " + std::string(name) +
        " of element " + std::to_string(elem) + " (stored " +
        std::to_string(stored) + ", computed " + std::to_string(actual) + ")");
  }
  field.assign_bytes(p, count);
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& image) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    throw CheckpointError("checkpoint: cannot open " + path + " for writing");
  }
  f.write(reinterpret_cast<const char*>(image.data()),
          static_cast<std::streamsize>(image.size()));
  if (!f) throw CheckpointError("checkpoint: short write to " + path);
}

/// Read the file at \p path into \p image (reusing its storage); false
/// when the file cannot be opened.
bool read_file(const std::string& path, std::vector<std::uint8_t>& image) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) return false;
  const std::streamsize n = f.tellg();
  f.seekg(0);
  image.resize(static_cast<std::size_t>(n));
  f.read(reinterpret_cast<char*>(image.data()), n);
  if (!f) throw CheckpointError("checkpoint: short read from " + path);
  return true;
}

}  // namespace

std::vector<std::uint8_t> serialize_checkpoint(const CheckpointInfo& info,
                                               const State& s) {
  std::vector<std::uint8_t> out;
  build_full_image(out, info, s, chunk_crcs(s));
  return out;
}

CheckpointInfo deserialize_checkpoint(std::span<const std::uint8_t> image,
                                      State& s) {
  Reader r{image};
  const auto magic = r.get<std::uint32_t>();
  if (magic != kCheckpointMagic) {
    throw CheckpointError("checkpoint: bad magic (not a SWCK checkpoint)");
  }
  const auto version = r.get<std::uint32_t>();
  if (version != kCheckpointVersion) {
    throw CheckpointError("checkpoint: unsupported version " +
                          std::to_string(version) + " (this build reads " +
                          std::to_string(kCheckpointVersion) + ")");
  }

  const CheckpointInfo info = get_info(r);
  const std::uint32_t stored_crc = r.get<std::uint32_t>();
  const std::uint32_t actual_crc =
      crc32(image.data(), r.pos - sizeof(std::uint32_t));
  if (stored_crc != actual_crc) {
    throw CheckpointError("checkpoint: header CRC mismatch (stored " +
                          std::to_string(stored_crc) + ", computed " +
                          std::to_string(actual_crc) + ")");
  }
  if (info.dims.nlev <= 0 || info.dims.qsize < 0) {
    throw CheckpointError("checkpoint: implausible dims (nlev=" +
                          std::to_string(info.dims.nlev) + ", qsize=" +
                          std::to_string(info.dims.qsize) + ")");
  }

  // Bound the header's shape by the bytes left before allocating for it:
  // a corrupt nelem/nlev/qsize must be a CheckpointError, not bad_alloc.
  // Each element is six (count, doubles, CRC) records; the divisions
  // keep every product below from overflowing.
  const std::size_t left = image.size() - r.pos;
  const std::size_t fs = info.dims.field_size();
  const std::size_t fields = 4 + static_cast<std::size_t>(info.dims.qsize);
  if (fs > left / sizeof(double) / fields ||
      info.nelem > left / ((fields * fs + kNpp) * sizeof(double) +
                           6 * (sizeof(std::uint64_t) +
                                sizeof(std::uint32_t)))) {
    throw CheckpointError(
        "checkpoint: header shape (nelem=" + std::to_string(info.nelem) +
        ", nlev=" + std::to_string(info.dims.nlev) + ", qsize=" +
        std::to_string(info.dims.qsize) + ") does not fit the " +
        std::to_string(left) + " bytes of records");
  }
  s.assign(static_cast<std::size_t>(info.nelem), ElementState(info.dims));
  for (std::size_t e = 0; e < s.size(); ++e) {
    ElementState& es = s[e];
    get_payload(r, es.u1, fs, "u1", e);
    get_payload(r, es.u2, fs, "u2", e);
    get_payload(r, es.T, fs, "T", e);
    get_payload(r, es.dp, fs, "dp", e);
    get_payload(r, es.qdp, static_cast<std::size_t>(info.dims.qsize) * fs,
                "qdp", e);
    get_payload(r, es.phis, kNpp, "phis", e);
  }
  if (r.pos != image.size()) {
    throw CheckpointError("checkpoint: " +
                          std::to_string(image.size() - r.pos) +
                          " trailing bytes after last record");
  }
  return info;
}

void save_checkpoint(const std::string& path, const CheckpointInfo& info,
                     const State& s) {
  write_file(path, serialize_checkpoint(info, s));
}

CheckpointInfo load_checkpoint(const std::string& path, State& s) {
  std::vector<std::uint8_t> image;
  if (!read_file(path, image)) {
    throw CheckpointError("checkpoint: cannot open " + path);
  }
  return deserialize_checkpoint(image, s);
}

// ---------------------------------------------------------------------------
// Delta checkpoints
// ---------------------------------------------------------------------------

namespace {

std::string delta_path(const std::string& base, int k) {
  return base + ".d" + std::to_string(k);
}

std::string full_path(const std::string& base) { return base + ".full"; }

/// True when two headers describe the same run: shape, flags and the
/// dycore settings a restart depends on (step_count may differ).
bool same_run(const CheckpointInfo& a, const CheckpointInfo& b) {
  return a.nelem == b.nelem && a.dims.nlev == b.dims.nlev &&
         a.dims.qsize == b.dims.qsize && a.dims.moist == b.dims.moist &&
         a.config.limit_tracers == b.config.limit_tracers &&
         a.config.hypervis_on == b.config.hypervis_on &&
         a.config.remap_freq == b.config.remap_freq &&
         a.config.dt == b.config.dt && a.config.nu == b.config.nu;
}

/// Expected double count of chunk \p id given the header dims.
std::size_t chunk_expected_size(std::size_t id, const Dims& d) {
  switch (id % kChunksPerElement) {
    case 4:
      return static_cast<std::size_t>(d.qsize) * d.field_size();
    case 5:
      return kNpp;
    default:
      return d.field_size();
  }
}

}  // namespace

std::vector<std::uint8_t> serialize_delta_checkpoint(
    const CheckpointInfo& info, const State& s, std::uint64_t base_seq,
    std::uint64_t seq, std::vector<std::uint32_t>& crcs,
    std::uint64_t* chunks_written) {
  std::vector<std::uint8_t> out;
  const std::uint64_t n = build_delta_image(out, info, s, base_seq, seq, crcs);
  if (chunks_written != nullptr) *chunks_written = n;
  return out;
}

DeltaInfo apply_delta_checkpoint(std::span<const std::uint8_t> image,
                                 State& s) {
  Reader r{image};
  const auto magic = r.get<std::uint32_t>();
  if (magic != kDeltaMagic) {
    throw CheckpointError("delta checkpoint: bad magic (not SWDK)");
  }
  const auto version = r.get<std::uint32_t>();
  if (version != kDeltaVersion) {
    throw CheckpointError("delta checkpoint: unsupported version " +
                          std::to_string(version) + " (this build reads " +
                          std::to_string(kDeltaVersion) + ")");
  }

  DeltaInfo di;
  di.base_seq = r.get<std::uint64_t>();
  di.seq = r.get<std::uint64_t>();
  di.info = get_info(r);
  const CheckpointInfo& info = di.info;
  const auto nrecords = r.get<std::uint64_t>();

  const std::uint32_t stored_crc = r.get<std::uint32_t>();
  const std::uint32_t actual_crc =
      crc32(image.data(), r.pos - sizeof(std::uint32_t));
  if (stored_crc != actual_crc) {
    throw CheckpointError("delta checkpoint: header CRC mismatch (stored " +
                          std::to_string(stored_crc) + ", computed " +
                          std::to_string(actual_crc) + ")");
  }
  if (info.nelem != s.size()) {
    throw CheckpointError(
        "delta checkpoint: record is for " + std::to_string(info.nelem) +
        " elements, state holds " + std::to_string(s.size()) +
        " (chain applied out of order?)");
  }
  const std::size_t nchunks = s.size() * kChunksPerElement;

  for (std::uint64_t rec = 0; rec < nrecords; ++rec) {
    const auto id = r.get<std::uint64_t>();
    if (id >= nchunks) {
      throw CheckpointError("delta checkpoint: chunk id " +
                            std::to_string(id) + " out of range (state has " +
                            std::to_string(nchunks) + " chunks)");
    }
    Chunk& chunk = state_chunk(s, static_cast<std::size_t>(id));
    const std::size_t expected =
        chunk_expected_size(static_cast<std::size_t>(id), info.dims);
    if (expected != chunk.size()) {
      throw CheckpointError(
          "delta checkpoint: chunk " + std::to_string(id) + " is " +
          std::to_string(expected) + " values under the record's dims, " +
          std::to_string(chunk.size()) + " in the state");
    }
    get_payload(r, chunk, expected, "chunk", static_cast<std::size_t>(id));
  }
  if (r.pos != image.size()) {
    throw CheckpointError("delta checkpoint: " +
                          std::to_string(image.size() - r.pos) +
                          " trailing bytes after last record");
  }
  di.chunks_written = nrecords;
  return di;
}

DeltaCheckpointWriter::SaveRecord DeltaCheckpointWriter::save(
    const CheckpointInfo& info, const State& s) {
  const std::size_t nchunks = s.size() * kChunksPerElement;
  SaveRecord rec;
  rec.seq = seq_++;
  rec.chunks_total = nchunks;

  const bool full = prev_crcs_.size() != nchunks ||
                    delta_index_ + 1 >= full_interval_;
  if (full) {
    // Drop the previous chain's deltas before overwriting the full image:
    // a crash between the two operations leaves the old full with no
    // deltas — a consistent (if older) restore point.
    for (int k = 1; std::remove(delta_path(base_, k).c_str()) == 0; ++k) {
    }
    // One CRC pass: the records' CRCs are the next delta's baseline.
    std::vector<std::uint32_t> crcs = chunk_crcs(s);
    build_full_image(image_, info, s, crcs);
    write_file(full_path(base_), image_);
    prev_crcs_ = std::move(crcs);
    base_seq_ = rec.seq;
    delta_index_ = 0;
    rec.full = true;
    rec.bytes = image_.size();
    rec.chunks_written = nchunks;
    ++totals_.fulls;
  } else {
    const std::uint64_t cw =
        build_delta_image(image_, info, s, base_seq_, rec.seq, prev_crcs_);
    write_file(delta_path(base_, ++delta_index_), image_);
    rec.bytes = image_.size();
    rec.chunks_written = static_cast<std::size_t>(cw);
    ++totals_.deltas;
  }
  ++totals_.saves;
  totals_.bytes_written += rec.bytes;
  totals_.chunks_written += rec.chunks_written;
  totals_.chunk_slots += nchunks;
  return rec;
}

CheckpointInfo DeltaCheckpointWriter::restore_chain(const std::string& base,
                                                    State& s) {
  CheckpointInfo info = load_checkpoint(full_path(base), s);
  std::uint64_t chain_base = 0;
  std::uint64_t prev_seq = 0;
  std::vector<std::uint8_t> image;  // reused by every record of the chain
  for (int k = 1;; ++k) {
    const std::string path = delta_path(base, k);
    if (!read_file(path, image)) break;

    const DeltaInfo di = apply_delta_checkpoint(image, s);
    if (!same_run(di.info, info)) {
      throw CheckpointError(
          "delta checkpoint: " + path + " is not from the run of " +
          full_path(base) + " (dims, flags, dt, nu or remap_freq differ)");
    }
    if (k == 1) {
      chain_base = di.base_seq;
    } else if (di.base_seq != chain_base || di.seq != prev_seq + 1) {
      throw CheckpointError(
          "delta checkpoint: broken chain at " + path + " (base_seq " +
          std::to_string(di.base_seq) + ", seq " + std::to_string(di.seq) +
          " after seq " + std::to_string(prev_seq) + ")");
    }
    prev_seq = di.seq;
    info = di.info;
  }
  return info;
}

// ---------------------------------------------------------------------------
// AsyncCheckpointWriter
// ---------------------------------------------------------------------------

AsyncCheckpointWriter::AsyncCheckpointWriter(std::string base,
                                             int full_interval,
                                             std::size_t max_pending)
    : writer_(std::move(base), full_interval),
      max_pending_(max_pending > 0 ? max_pending : 1),
      thread_([this] { writer_loop(); }) {}

AsyncCheckpointWriter::~AsyncCheckpointWriter() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_space_.notify_all();
  cv_done_.notify_all();
  thread_.join();
}

void AsyncCheckpointWriter::save(const CheckpointInfo& info, const State& s) {
  std::unique_lock<std::mutex> lk(mu_);
  if (error_ != nullptr) std::rethrow_exception(std::exchange(error_, nullptr));
  if (queue_.size() >= max_pending_) {
    ++stats_.blocked_saves;
    // Deliberately ignore stop_ here: an accepted save must reach disk
    // even when the destructor races us (the writer loop will not exit
    // while save_waiters_ > 0, so it always frees a slot eventually).
    // The old early-return on stop_ silently dropped the caller's final
    // checkpoint during teardown.
    ++save_waiters_;
    cv_done_.wait(lk, [&] { return queue_.size() < max_pending_; });
    --save_waiters_;
  }
  // State copy = COW snapshot: O(nchunks) refcount bumps, no field data
  // moves. The stepping thread's next write to any chunk un-shares it,
  // leaving this snapshot's view frozen.
  queue_.push_back(Pending{info, s});
  cv_space_.notify_one();
}

void AsyncCheckpointWriter::set_write_hook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lk(mu_);
  write_hook_ = std::move(hook);
}

void AsyncCheckpointWriter::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [&] { return (queue_.empty() && !busy_) || stop_; });
  if (error_ != nullptr) std::rethrow_exception(std::exchange(error_, nullptr));
}

AsyncCheckpointWriter::Stats AsyncCheckpointWriter::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void AsyncCheckpointWriter::writer_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    // Exit only once the queue is drained AND no save() is still waiting
    // to enqueue — a blocked save's snapshot must reach disk, not die
    // with the thread.
    cv_space_.wait(lk, [&] {
      return !queue_.empty() || (stop_ && save_waiters_ == 0);
    });
    if (queue_.empty() && stop_ && save_waiters_ == 0) return;
    Pending job = std::move(queue_.front());
    queue_.pop_front();
    busy_ = true;
    // The queue slot frees at pop time, not when the write lands: a
    // save() blocked on a full queue must not have to wait out the
    // (possibly slow) disk write of the job that made room for it.
    // drain() is not fooled — its predicate also requires !busy_.
    cv_done_.notify_all();
    const std::function<void()> hook = write_hook_;
    lk.unlock();

    DeltaCheckpointWriter::SaveRecord rec{};
    std::exception_ptr err;
    try {
      if (hook) hook();
      rec = writer_.save(job.info, job.snapshot);
    } catch (...) {
      err = std::current_exception();
    }
    // Release the snapshot's chunk refs outside the lock.
    job.snapshot.clear();

    lk.lock();
    busy_ = false;
    if (err != nullptr) {
      if (error_ == nullptr) error_ = err;
    } else {
      ++stats_.saves;
      if (rec.full) {
        ++stats_.fulls;
      } else {
        ++stats_.deltas;
      }
      stats_.bytes_written += rec.bytes;
      stats_.chunks_written += rec.chunks_written;
      stats_.chunk_slots += rec.chunks_total;
    }
    cv_done_.notify_all();
  }
}

// ---------------------------------------------------------------------------
// StateMonitor
// ---------------------------------------------------------------------------

std::optional<std::string> StateMonitor::check(const State& s) const {
  const int nlev = dims_.nlev;
  for (std::size_t e = 0; e < s.size(); ++e) {
    const ElementState& es = s[e];
    const std::pair<const char*, std::span<const double>> fields[] = {
        {"u1", es.u1.span()},   {"u2", es.u2.span()},
        {"T", es.T.span()},     {"dp", es.dp.span()},
        {"qdp", es.qdp.span()}, {"phis", es.phis.span()}};
    for (const auto& [name, vec] : fields) {
      for (std::size_t f = 0; f < vec.size(); ++f) {
        if (!std::isfinite(vec[f])) {
          return "non-finite " + std::string(name) + " at element " +
                 std::to_string(e) + ", lev " +
                 std::to_string(f / kNpp) + ", gll " +
                 std::to_string(f % kNpp);
        }
      }
    }
    for (int k = 0; k < kNpp; ++k) {
      double ps = kPtop;
      for (int lev = 0; lev < nlev; ++lev) {
        const double dp = es.dp[fidx(lev, k)];
        if (dp <= 0.0) {
          return "non-positive layer mass dp=" + std::to_string(dp) +
                 " at element " + std::to_string(e) + ", lev " +
                 std::to_string(lev) + ", gll " + std::to_string(k);
        }
        ps += dp;
      }
      if (ps < ps_min || ps > ps_max) {
        return "surface pressure " + std::to_string(ps) +
               " Pa outside [" + std::to_string(ps_min) + ", " +
               std::to_string(ps_max) + "] at element " + std::to_string(e) +
               ", gll " + std::to_string(k);
      }
    }
  }
  return std::nullopt;
}

}  // namespace homme
