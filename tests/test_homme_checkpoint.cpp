// Resilience layer, recovery side: versioned checkpoints with per-field
// CRCs must round-trip bit-identically (in memory and on disk), reject
// corruption / version skew / spliced or oversized records / config
// mismatch with typed errors, let a killed session restart
// bit-identically from its chain at 1-4 ranks, and let the
// StateMonitor flag physically impossible states.

#include "homme/checkpoint.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "homme/driver.hpp"
#include "homme/init.hpp"
#include "model/session.hpp"

namespace {

using homme::CheckpointError;
using homme::CheckpointInfo;
using homme::Dims;
using homme::State;

Dims small_dims() {
  Dims d;
  d.nlev = 4;
  d.qsize = 2;
  return d;
}

/// Remove a checkpoint chain: "<base>.full" and its "<base>.dN" deltas.
void remove_chain(const std::string& base) {
  std::remove((base + ".full").c_str());
  for (int k = 1; std::remove((base + ".d" + std::to_string(k)).c_str()) == 0;
       ++k) {
  }
}

/// Whole-file read and write, for splicing chain records by hand.
std::vector<char> slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(f),
                           std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

bool states_bitwise_equal(const State& a, const State& b) {
  auto eq = [](const homme::Chunk& x, const homme::Chunk& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size_bytes()) == 0;
  };
  if (a.size() != b.size()) return false;
  for (std::size_t e = 0; e < a.size(); ++e) {
    if (!eq(a[e].u1, b[e].u1) || !eq(a[e].u2, b[e].u2) ||
        !eq(a[e].T, b[e].T) || !eq(a[e].dp, b[e].dp) ||
        !eq(a[e].qdp, b[e].qdp) || !eq(a[e].phis, b[e].phis)) {
      return false;
    }
  }
  return true;
}

CheckpointInfo make_info(const Dims& d, const State& s) {
  CheckpointInfo info;
  info.nelem = s.size();
  info.dims = d;
  info.config.dt = 12.5;
  info.config.nu = 1.0e15;
  info.config.remap_freq = 3;
  info.step_count = 17;
  info.rng_seed = 0xDEADBEEFull;
  return info;
}

TEST(Checkpoint, SerializeDeserializeRoundTripsBitIdentically) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);
  homme::init_tracers(mesh, d, s);

  const auto image = serialize_checkpoint(make_info(d, s), s);
  State restored;
  const CheckpointInfo info = deserialize_checkpoint(image, restored);

  EXPECT_TRUE(states_bitwise_equal(s, restored));
  EXPECT_EQ(info.nelem, s.size());
  EXPECT_EQ(info.dims.nlev, d.nlev);
  EXPECT_EQ(info.dims.qsize, d.qsize);
  EXPECT_EQ(info.step_count, 17);
  EXPECT_EQ(info.rng_seed, 0xDEADBEEFull);
  EXPECT_DOUBLE_EQ(info.config.dt, 12.5);
  EXPECT_EQ(info.config.remap_freq, 3);
}

TEST(Checkpoint, FlippedPayloadByteFailsItsFieldCrc) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);

  auto image = serialize_checkpoint(make_info(d, s), s);
  image[image.size() / 2] ^= 0x40;  // one bit, deep inside the records
  State restored;
  try {
    deserialize_checkpoint(image, restored);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }
}

TEST(Checkpoint, UnsupportedVersionIsRejectedByName) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);

  auto image = serialize_checkpoint(make_info(d, s), s);
  // Version is checked before the header CRC, so a patched version must
  // produce "unsupported version", not a checksum complaint.
  image[homme::kCheckpointVersionOffset] += 1;
  State restored;
  try {
    deserialize_checkpoint(image, restored);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version"),
              std::string::npos);
  }
}

TEST(Checkpoint, BadMagicAndTruncationAreRejected) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);
  auto image = serialize_checkpoint(make_info(d, s), s);

  auto bad = image;
  bad[0] ^= 0xFF;
  State restored;
  EXPECT_THROW(deserialize_checkpoint(bad, restored), CheckpointError);

  auto cut = image;
  cut.resize(cut.size() - 7);
  EXPECT_THROW(deserialize_checkpoint(cut, restored), CheckpointError);
}

TEST(Checkpoint, FileRoundTrip) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);

  const std::string path = ::testing::TempDir() + "swck_file_roundtrip.ck";
  save_checkpoint(path, make_info(d, s), s);
  State restored;
  const CheckpointInfo info = load_checkpoint(path, restored);
  EXPECT_TRUE(states_bitwise_equal(s, restored));
  EXPECT_EQ(info.step_count, 17);

  EXPECT_THROW(load_checkpoint(path + ".missing", restored), CheckpointError);
}

/// The bytewise CRC-32 (reflected 0xEDB88320), bit by bit: the oracle
/// the table-driven crc32 must match.
std::uint32_t crc32_bytewise(const std::uint8_t* p, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int b = 0; b < 8; ++b) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesTheStandardCheckValue) {
  const char* check = "123456789";
  EXPECT_EQ(homme::crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(homme::crc32(nullptr, 0), 0u);
}

TEST(Crc32, MatchesTheBytewiseOracleAtEveryLengthAndOffset) {
  // Every length 0-257 from every start offset 0-7: unaligned heads,
  // whole 8-byte steps and every tail length.
  std::vector<std::uint8_t> buf(257 + 8);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 167 + 13);
  }
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t n = 0; n <= 257; ++n) {
      ASSERT_EQ(homme::crc32(buf.data() + off, n),
                crc32_bytewise(buf.data() + off, n))
          << "offset " << off << ", length " << n;
    }
  }
}

/// The images of one fixed state; their CRCs are pinned below.
struct PinnedImages {
  std::vector<std::uint8_t> full, delta;
  std::uint64_t delta_records = 0;
};

PinnedImages pinned_images() {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);
  homme::init_tracers(mesh, d, s);
  PinnedImages img;
  img.full = serialize_checkpoint(make_info(d, s), s);
  std::vector<std::uint32_t> crcs = homme::chunk_crcs(s);
  s[1].T.mutable_span()[0] += 0.5;
  s[3].dp.mutable_span()[2] *= 1.001;
  img.delta = homme::serialize_delta_checkpoint(make_info(d, s), s, 0, 1,
                                                crcs, &img.delta_records);
  return img;
}

// The on-disk format is frozen: a faster CRC or serializer must write
// these exact bytes. Recorded with the bytewise-CRC serializer.
TEST(Checkpoint, ImagesOfAFixedStateAreBitIdenticalToTheRecordedOnes) {
  const PinnedImages img = pinned_images();
  EXPECT_EQ(img.full.size(), 78596u);
  EXPECT_EQ(homme::crc32(img.full.data(), img.full.size()), 0x23AD7A39u);
  EXPECT_EQ(img.delta_records, 2u);
  EXPECT_EQ(img.delta.size(), 1156u);
  EXPECT_EQ(homme::crc32(img.delta.data(), img.delta.size()), 0x57CD3DEBu);
}

// ---------------------------------------------------------------------------
// Delta checkpoints
// ---------------------------------------------------------------------------

TEST(DeltaCheckpoint, CarriesOnlyDirtyChunksAndRoundTrips) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);
  homme::init_tracers(mesh, d, s);

  // Baseline CRCs, then dirty exactly two chunks.
  std::vector<std::uint32_t> crcs = homme::chunk_crcs(s);
  State base_state = s;
  s[1].T.mutable_span()[0] += 0.5;
  s[3].dp.mutable_span()[2] *= 1.001;

  std::uint64_t written = 0;
  const auto delta = homme::serialize_delta_checkpoint(
      make_info(d, s), s, /*base_seq=*/0, /*seq=*/1, crcs, &written);
  EXPECT_EQ(written, 2u);
  const auto full = serialize_checkpoint(make_info(d, s), s);
  EXPECT_LT(delta.size(), full.size() / 4);

  // Applying onto the chain's preceding image reproduces s bit for bit.
  State target = base_state;
  // base_state aliases s's clean chunks; give target private copies so
  // the apply below cannot cheat through sharing.
  for (std::size_t id = 0; id < target.size() * homme::kChunksPerElement;
       ++id) {
    homme::state_chunk(target, id).mutable_span();
  }
  const homme::DeltaInfo di = apply_delta_checkpoint(delta, target);
  EXPECT_EQ(di.seq, 1u);
  EXPECT_EQ(di.chunks_written, 2u);
  EXPECT_TRUE(states_bitwise_equal(target, s));

  // An unchanged state writes an empty (header-only) delta.
  const auto empty_delta = homme::serialize_delta_checkpoint(
      make_info(d, s), s, 0, 2, crcs, &written);
  EXPECT_EQ(written, 0u);
  EXPECT_LT(empty_delta.size(), 128u);
}

// The writer hashes each chunk once per save: a full save's record CRCs
// are the next delta's baseline, so an unchanged state writes no record
// and one dirtied chunk writes exactly one.
TEST(DeltaCheckpoint, WriterFullSaveIsTheDeltaBaseline) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);
  homme::init_tracers(mesh, d, s);

  const std::string base = ::testing::TempDir() + "swdk_baseline.ck";
  homme::DeltaCheckpointWriter writer(base, /*full_interval=*/4);
  const CheckpointInfo info = make_info(d, s);
  ASSERT_TRUE(writer.save(info, s).full);

  const auto unchanged = writer.save(info, s);
  EXPECT_FALSE(unchanged.full);
  EXPECT_EQ(unchanged.chunks_written, 0u);

  s[2].u2.mutable_span()[1] += 1.0;
  const auto one = writer.save(info, s);
  EXPECT_FALSE(one.full);
  EXPECT_EQ(one.chunks_written, 1u);

  State restored;
  homme::DeltaCheckpointWriter::restore_chain(base, restored);
  EXPECT_TRUE(states_bitwise_equal(restored, s));
  remove_chain(base);
}

TEST(DeltaCheckpoint, WriterChainRestoresNewestSaveBitIdentically) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);
  homme::init_tracers(mesh, d, s);
  homme::Dycore dycore(mesh, d, homme::DycoreConfig{});

  const std::string base = ::testing::TempDir() + "swdk_chain.ck";
  homme::DeltaCheckpointWriter writer(base, /*full_interval=*/3);
  CheckpointInfo info = make_info(d, s);
  for (int i = 0; i < 3; ++i) {
    dycore.step(s);
    info.step_count = dycore.step_count();
    const auto rec = writer.save(info, s);
    EXPECT_EQ(rec.full, i == 0) << "save " << i;
  }
  EXPECT_EQ(writer.totals().fulls, 1u);
  EXPECT_EQ(writer.totals().deltas, 2u);

  State restored;
  const CheckpointInfo got =
      homme::DeltaCheckpointWriter::restore_chain(base, restored);
  EXPECT_EQ(got.step_count, 3);
  EXPECT_TRUE(states_bitwise_equal(restored, s));

  // A fourth save rolls a fresh full image and removes the stale deltas,
  // so the on-disk chain is never a new full with old deltas.
  dycore.step(s);
  info.step_count = dycore.step_count();
  EXPECT_TRUE(writer.save(info, s).full);
  State rolled;
  homme::DeltaCheckpointWriter::restore_chain(base, rolled);
  EXPECT_TRUE(states_bitwise_equal(rolled, s));

  std::remove((base + ".full").c_str());
  for (int k = 1; k < 8; ++k) {
    std::remove((base + ".d" + std::to_string(k)).c_str());
  }
}

// Regression: the async writer's shutdown ordering. A writer destroyed
// with buffered checkpoints in flight must flush every accepted save,
// never drop one — the final checkpoint of a torn-down Session is
// exactly the one a restart needs.
TEST(AsyncCheckpoint, DestructionFlushesBufferedSaves) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);
  homme::init_tracers(mesh, d, s);
  homme::Dycore dycore(mesh, d, homme::DycoreConfig{});

  const std::string base = ::testing::TempDir() + "swdk_async_flush.ck";
  CheckpointInfo info = make_info(d, s);
  {
    homme::AsyncCheckpointWriter writer(base, /*full_interval=*/2,
                                        /*max_pending=*/2);
    for (int i = 0; i < 3; ++i) {
      dycore.step(s);
      info.step_count = dycore.step_count();
      writer.save(info, s);
    }
    // No drain(): destruction alone must put all three saves on disk.
  }
  State restored;
  const CheckpointInfo got =
      homme::DeltaCheckpointWriter::restore_chain(base, restored);
  EXPECT_EQ(got.step_count, 3);
  EXPECT_TRUE(states_bitwise_equal(restored, s));

  std::remove((base + ".full").c_str());
  for (int k = 1; k < 8; ++k) {
    std::remove((base + ".d" + std::to_string(k)).c_str());
  }
}

// The sharpest corner of the same bug: a save() blocked on a full queue
// while the destructor runs used to wake on the stop flag and silently
// drop its snapshot. The write hook holds the background thread so the
// queue is provably full, the destructor provably racing, and the
// blocked save still provably on disk afterwards.
TEST(AsyncCheckpoint, BlockedFinalSaveSurvivesTeardownRace) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);
  homme::init_tracers(mesh, d, s);
  homme::Dycore dycore(mesh, d, homme::DycoreConfig{});

  const std::string base = ::testing::TempDir() + "swdk_async_race.ck";
  auto writer = std::make_unique<homme::AsyncCheckpointWriter>(
      base, /*full_interval=*/1, /*max_pending=*/1);
  // The hook raises `held` once the background thread has popped a job
  // and is parked on `gate`, so the queue's one slot is provably free.
  std::atomic<bool> held{false};
  std::atomic<bool> gate{false};
  writer->set_write_hook([&held, &gate] {
    held.store(true);
    while (!gate.load()) std::this_thread::sleep_for(
        std::chrono::milliseconds(1));
  });
  auto wait_for = [](const auto& done) {
    while (!done()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };

  CheckpointInfo info = make_info(d, s);
  auto save_step = [&] {
    dycore.step(s);
    info.step_count = dycore.step_count();
    writer->save(info, s);
  };
  save_step();  // popped by the background thread, held at the hook
  wait_for([&] { return held.load(); });
  save_step();  // fills the single queue slot without blocking
  const State final_state = [&] {
    dycore.step(s);
    return s;
  }();
  info.step_count = dycore.step_count();
  // The blocked thread calls through a raw pointer taken now: the
  // destroyer below nulls the unique_ptr while that save is in flight.
  homme::AsyncCheckpointWriter* const raw = writer.get();
  const std::uint64_t blocked_before = raw->stats().blocked_saves;
  std::thread blocked([&] { raw->save(info, final_state); });
  wait_for([&] { return raw->stats().blocked_saves > blocked_before; });

  // Start destruction while the third save is still blocked, then let
  // the writer run. Every accepted save must reach disk.
  std::thread destroyer([&] { writer.reset(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  gate.store(true);
  blocked.join();
  destroyer.join();

  State restored;
  const CheckpointInfo got =
      homme::DeltaCheckpointWriter::restore_chain(base, restored);
  EXPECT_EQ(got.step_count, 3);
  EXPECT_TRUE(states_bitwise_equal(restored, final_state));

  std::remove((base + ".full").c_str());
  for (int k = 1; k < 8; ++k) {
    std::remove((base + ".d" + std::to_string(k)).c_str());
  }
}

TEST(DeltaCheckpoint, MidRemapCycleChainRestoreContinuesBitIdentically) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  homme::DycoreConfig cfg;
  cfg.remap_freq = 3;

  // Reference: 8 uninterrupted steps.
  State straight = homme::baroclinic(mesh, d);
  homme::init_tracers(mesh, d, straight);
  {
    homme::Dycore dc(mesh, d, cfg);
    for (int i = 0; i < 8; ++i) dc.step(straight);
  }

  // Save every step through step 4 — one past a remap, mid cycle — then
  // restore from the files alone and finish the remaining steps.
  const std::string base = ::testing::TempDir() + "swdk_midremap.ck";
  State s = homme::baroclinic(mesh, d);
  homme::init_tracers(mesh, d, s);
  homme::Dycore dc(mesh, d, cfg);
  homme::DeltaCheckpointWriter writer(base, /*full_interval=*/10);
  CheckpointInfo info = make_info(d, s);
  info.config = cfg;
  for (int i = 0; i < 4; ++i) {
    dc.step(s);
    info.step_count = dc.step_count();
    writer.save(info, s);
  }

  State resumed;
  const CheckpointInfo got =
      homme::DeltaCheckpointWriter::restore_chain(base, resumed);
  ASSERT_EQ(got.step_count, 4);
  homme::Dycore dc2(mesh, d, cfg);
  dc2.set_step_count(static_cast<int>(got.step_count));
  for (int i = 4; i < 8; ++i) dc2.step(resumed);

  EXPECT_TRUE(states_bitwise_equal(resumed, straight));

  std::remove((base + ".full").c_str());
  for (int k = 1; k < 8; ++k) {
    std::remove((base + ".d" + std::to_string(k)).c_str());
  }
}

TEST(DeltaCheckpoint, BrokenChainsAreTypedErrors) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);
  homme::init_tracers(mesh, d, s);
  homme::Dycore dycore(mesh, d, homme::DycoreConfig{});

  const std::string base = ::testing::TempDir() + "swdk_broken.ck";
  homme::DeltaCheckpointWriter writer(base, /*full_interval=*/10);
  CheckpointInfo info = make_info(d, s);
  for (int i = 0; i < 3; ++i) {
    dycore.step(s);
    info.step_count = dycore.step_count();
    writer.save(info, s);
  }  // on disk: .full, .d1, .d2

  const auto d1 = slurp(base + ".d1");
  const auto d2 = slurp(base + ".d2");

  // Swapped deltas: seq continuity fails at the second link.
  spit(base + ".d1", d2);
  spit(base + ".d2", d1);
  State restored;
  try {
    homme::DeltaCheckpointWriter::restore_chain(base, restored);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("broken chain"), std::string::npos);
  }
  spit(base + ".d1", d1);
  spit(base + ".d2", d2);

  // A flipped payload byte in a delta fails that record's CRC.
  auto corrupt = d1;
  corrupt[corrupt.size() - 9] ^= 0x10;
  spit(base + ".d1", corrupt);
  try {
    homme::DeltaCheckpointWriter::restore_chain(base, restored);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }

  // No full image, no chain.
  std::remove((base + ".full").c_str());
  EXPECT_THROW(homme::DeltaCheckpointWriter::restore_chain(base, restored),
               CheckpointError);

  for (int k = 1; k < 8; ++k) {
    std::remove((base + ".d" + std::to_string(k)).c_str());
  }
}

// Every record of a chain must come from the full image's run. A
// CRC-valid delta spliced in from a chain of another shape (same nelem)
// or another dt must be refused, not silently reshape the state.
TEST(DeltaCheckpoint, SplicedRecordOfAnotherRunIsATypedError) {
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  auto write_chain = [&](const std::string& base, const Dims& d, double dt) {
    State s = homme::baroclinic(mesh, d);
    homme::init_tracers(mesh, d, s);
    homme::DeltaCheckpointWriter writer(base, /*full_interval=*/10);
    CheckpointInfo info = make_info(d, s);
    info.config.dt = dt;
    for (int i = 0; i < 2; ++i) {
      s[0].T.mutable_span()[0] += 1.0;  // dirty one chunk per save
      ++info.step_count;
      writer.save(info, s);
    }  // on disk: .full, .d1
  };

  Dims d4 = small_dims();
  Dims d5 = d4;
  d5.nlev = 5;
  const std::string base = ::testing::TempDir() + "swdk_splice.ck";
  const std::string other = ::testing::TempDir() + "swdk_splice_other.ck";
  State restored;
  for (const auto& [dims, dt, what] :
       {std::tuple{d4, 12.5, "nlev"}, std::tuple{d5, 99.0, "dt"}}) {
    SCOPED_TRACE(std::string("spliced record differs in ") + what);
    write_chain(base, d5, 12.5);
    write_chain(other, dims, dt);
    spit(base + ".d1", slurp(other + ".d1"));
    try {
      homme::DeltaCheckpointWriter::restore_chain(base, restored);
      ADD_FAILURE() << "spliced chain restored";
    } catch (const CheckpointError&) {
    }
  }
  remove_chain(base);
  remove_chain(other);
}

// A header whose shape cannot fit the image is refused before any
// allocation: a CheckpointError, never bad_alloc.
TEST(Checkpoint, OversizedHeaderShapeIsATypedError) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);
  const auto image = serialize_checkpoint(make_info(d, s), s);

  // Header layout: magic, version, nelem (u64), nlev, qsize (i32), ...
  constexpr std::size_t kNelemOffset = 2 * sizeof(std::uint32_t);
  constexpr std::size_t kNlevOffset = kNelemOffset + sizeof(std::uint64_t);
  constexpr std::size_t kQsizeOffset = kNlevOffset + sizeof(std::int32_t);
  constexpr std::size_t kHeaderBytes =
      kQsizeOffset + 3 * sizeof(std::int32_t) + 2 * sizeof(std::uint64_t) +
      2 * sizeof(double);
  auto patched = [&](std::uint64_t nelem, std::int32_t nlev,
                     std::int32_t qsize) {
    auto img = image;
    std::memcpy(img.data() + kNelemOffset, &nelem, sizeof nelem);
    std::memcpy(img.data() + kNlevOffset, &nlev, sizeof nlev);
    std::memcpy(img.data() + kQsizeOffset, &qsize, sizeof qsize);
    const std::uint32_t crc = homme::crc32(img.data(), kHeaderBytes);
    std::memcpy(img.data() + kHeaderBytes, &crc, sizeof crc);
    return img;
  };
  constexpr std::int32_t kMaxI32 = std::numeric_limits<std::int32_t>::max();
  const std::uint64_t nelem = s.size();
  for (const auto& [n, nlev, qsize] :
       {std::tuple{std::uint64_t{1} << 28, d.nlev, d.qsize},
        std::tuple{std::uint64_t{1} << 40, d.nlev, d.qsize},
        std::tuple{nelem, kMaxI32, d.qsize},
        std::tuple{nelem, kMaxI32, kMaxI32}}) {
    SCOPED_TRACE("nelem=" + std::to_string(n) + " nlev=" +
                 std::to_string(nlev) + " qsize=" + std::to_string(qsize));
    State restored;
    EXPECT_THROW(deserialize_checkpoint(patched(n, nlev, qsize), restored),
                 CheckpointError);
  }
  // The patcher itself is sound: the unchanged header still loads.
  State restored;
  EXPECT_NO_THROW(
      deserialize_checkpoint(patched(nelem, d.nlev, d.qsize), restored));
  EXPECT_TRUE(states_bitwise_equal(restored, s));
}

// ---------------------------------------------------------------------------
// StateMonitor
// ---------------------------------------------------------------------------

TEST(StateMonitor, HealthyStatePasses) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);
  homme::StateMonitor mon(d);
  EXPECT_FALSE(mon.check(s).has_value());
}

TEST(StateMonitor, FlagsNaNWithFieldAndLocation) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);
  s[3].T.mutable_span()[homme::fidx(2, 5)] = std::numeric_limits<double>::quiet_NaN();
  homme::StateMonitor mon(d);
  const auto v = mon.check(s);
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("non-finite T"), std::string::npos);
  EXPECT_NE(v->find("element 3"), std::string::npos);
}

TEST(StateMonitor, FlagsNegativeLayerMassAndPressureBounds) {
  const Dims d = small_dims();
  auto mesh = mesh::CubedSphere::build(2, mesh::kEarthRadius);
  State s = homme::baroclinic(mesh, d);
  homme::StateMonitor mon(d);

  State bad_dp = s;
  bad_dp[0].dp.mutable_span()[homme::fidx(1, 0)] = -5.0;
  auto v = mon.check(bad_dp);
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("non-positive layer mass"), std::string::npos);

  State heavy = s;
  auto heavy_dp = heavy[1].dp.mutable_span();
  for (int lev = 0; lev < d.nlev; ++lev) {
    heavy_dp[homme::fidx(lev, 2)] *= 10.0;
  }
  v = mon.check(heavy);
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("surface pressure"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Multi-rank restart through model::Session
// ---------------------------------------------------------------------------

/// ne3/L4 sessions over \p nranks ranks, started from a baroclinic wave
/// with tracers.
struct RestartFixture {
  mesh::CubedSphere mesh = mesh::CubedSphere::build(3, mesh::kEarthRadius);
  Dims d = small_dims();
  State initial;

  RestartFixture() {
    initial = homme::baroclinic(mesh, d, 25.0, 295.0, 4.0);
    homme::init_tracers(mesh, d, initial);
  }

  model::SessionConfig config(int nranks) const {
    return model::SessionConfig{}.with_ne(3).with_levels(d.nlev, d.qsize)
        .with_ranks(nranks);
  }
  std::unique_ptr<model::Session> session(
      const model::SessionConfig& cfg) const {
    auto s = std::make_unique<model::Session>(cfg);
    s->set_state(initial);
    return s;
  }
};

TEST(CheckpointRestart, KillAtStepKThenRestartIsBitIdentical) {
  RestartFixture fx;
  for (int nranks = 1; nranks <= 4; ++nranks) {
    SCOPED_TRACE(std::to_string(nranks) + " ranks");
    const std::string base = ::testing::TempDir() + "swck_restart_r" +
                             std::to_string(nranks) + ".ck";
    const model::SessionConfig cfg =
        fx.config(nranks).with_delta_checkpoints(base, 0, 4);

    // Reference: 6 uninterrupted steps.
    auto straight = fx.session(fx.config(nranks));
    straight->run(6);

    // Run 3 steps, checkpoint, and "die" (the process state is discarded;
    // destruction only flushes the accepted save).
    {
      auto killed = fx.session(cfg);
      killed->run(3);
      ASSERT_TRUE(killed->checkpoint_now());
    }

    // Restart from the files alone and finish the remaining 3 steps.
    model::Session restarted(cfg);
    ASSERT_TRUE(restarted.try_resume());
    EXPECT_EQ(restarted.step_count(), 3);
    restarted.run(3);

    EXPECT_TRUE(states_bitwise_equal(straight->state(), restarted.state()));
    remove_chain(base);
  }
}

TEST(CheckpointRestart, MismatchOnRestoreIsATypedError) {
  RestartFixture fx;
  const std::string base = ::testing::TempDir() + "swck_cfg_mismatch.ck";
  const model::SessionConfig cfg =
      fx.config(2).with_delta_checkpoints(base, 0, 4);
  ASSERT_TRUE(fx.session(cfg)->checkpoint_now());  // the temporary drains

  auto expect_refused = [&](const model::SessionConfig& other,
                            const std::string& why) {
    model::Session s(other);
    const State before = s.state();
    try {
      s.restore();
      ADD_FAILURE() << "restore into a session with a different " << why
                    << " was accepted";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
    // A refused restore leaves the session as it was.
    EXPECT_EQ(s.step_count(), 0);
    EXPECT_TRUE(states_bitwise_equal(s.state(), before));
  };
  expect_refused(model::SessionConfig{cfg}.with_remap_freq(5),
                 "config mismatch");
  expect_refused(model::SessionConfig{cfg}.with_levels(6, 2),
                 "dims mismatch");
  expect_refused(model::SessionConfig{cfg}.with_ne(2),
                 "element count mismatch");

  // The matching config still restores.
  model::Session ok(cfg);
  EXPECT_NO_THROW(ok.restore());
  remove_chain(base);
}

}  // namespace
