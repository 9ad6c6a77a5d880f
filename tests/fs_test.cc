// Tests for the durability layer (src/util/fs): CRC32, atomic file
// writes, bounds-checked buffer reads and named fault injection.

#include <dirent.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "util/fs.h"

namespace ba::util {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_("/tmp/ba_fs_" + name + "_" + std::to_string(::getpid())) {}
  ~TempFile() {
    std::remove(path_.c_str());
    for (const std::string& tmp : TmpLitter()) std::remove(tmp.c_str());
  }
  const std::string& path() const { return path_; }

  /// Every `<path>.tmp*` scratch file currently in the directory —
  /// empty whenever the writer honored its no-litter contract.
  std::vector<std::string> TmpLitter() const {
    std::vector<std::string> found;
    const size_t slash = path_.rfind('/');
    const std::string dir = path_.substr(0, slash);
    const std::string prefix = path_.substr(slash + 1) + ".tmp";
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return found;
    while (struct dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name.rfind(prefix, 0) == 0) found.push_back(dir + "/" + name);
    }
    ::closedir(d);
    return found;
  }

 private:
  std::string path_;
};

std::string Slurp(const std::string& path) {
  auto r = ReadFileToString(path);
  return r.ok() ? r.value() : "<unreadable>";
}

/// Every fault-injection test must leave the global injector clean.
class FaultGuard {
 public:
  FaultGuard() { FaultInjector::Instance().DisarmAll(); }
  ~FaultGuard() { FaultInjector::Instance().DisarmAll(); }
};

TEST(Crc32Test, MatchesKnownVectors) {
  // IEEE 802.3 check value for "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0x00000000u);
  EXPECT_EQ(Crc32(std::string("The quick brown fox jumps over the lazy dog")),
            0x414FA339u);
}

TEST(Crc32Test, IncrementalEqualsOneShot) {
  const std::string data = "incremental checksum over two chunks";
  const uint32_t one_shot = Crc32(data);
  const uint32_t part1 = Crc32(data.data(), 10);
  const uint32_t chained = Crc32(data.data() + 10, data.size() - 10, part1);
  EXPECT_EQ(one_shot, chained);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data = "some artifact payload";
  const uint32_t before = Crc32(data);
  data[7] ^= 0x01;
  EXPECT_NE(Crc32(data), before);
}

TEST(AtomicFileWriterTest, CommitWritesContentAndRemovesTmp) {
  TempFile file("commit");
  AtomicFileWriter w(file.path());
  ASSERT_TRUE(w.Open().ok());
  ASSERT_TRUE(w.Append("hello ").ok());
  ASSERT_TRUE(w.Append("world").ok());
  EXPECT_EQ(w.bytes_written(), 11u);
  EXPECT_EQ(w.crc(), Crc32(std::string("hello world")));
  ASSERT_TRUE(w.Commit().ok());
  EXPECT_EQ(Slurp(file.path()), "hello world");
  EXPECT_FALSE(FileExists(w.tmp_path()));
}

TEST(AtomicFileWriterTest, AbortLeavesNoFile) {
  TempFile file("abort");
  {
    AtomicFileWriter w(file.path());
    ASSERT_TRUE(w.Open().ok());
    ASSERT_TRUE(w.Append("partial").ok());
    // Destructor aborts an uncommitted write.
  }
  EXPECT_FALSE(FileExists(file.path()));
  EXPECT_FALSE(FileExists(file.path() + ".tmp"));
}

TEST(AtomicFileWriterTest, FailedWriteNeverTearsExistingFile) {
  TempFile file("no_tear");
  {
    AtomicFileWriter w(file.path());
    ASSERT_TRUE(w.Open().ok());
    ASSERT_TRUE(w.Append("version one").ok());
    ASSERT_TRUE(w.Commit().ok());
  }
  {
    AtomicFileWriter w(file.path());
    ASSERT_TRUE(w.Open().ok());
    ASSERT_TRUE(w.Append("version tw").ok());
    // Abandon before commit: the old content must be intact.
  }
  EXPECT_EQ(Slurp(file.path()), "version one");
}

TEST(AtomicFileWriterTest, WriteBeforeOpenFailsCleanly) {
  TempFile file("not_open");
  AtomicFileWriter w(file.path());
  EXPECT_EQ(w.Append("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(w.Commit().code(), StatusCode::kFailedPrecondition);
}

TEST(FaultInjectorTest, ArmedPointFailsExactlyOnce) {
  FaultGuard guard;
  auto& injector = FaultInjector::Instance();
  injector.Arm("test.point");
  EXPECT_TRUE(injector.ShouldFail("test.point"));
  EXPECT_FALSE(injector.ShouldFail("test.point"));
  EXPECT_EQ(injector.HitCount("test.point"), 2);
}

TEST(FaultInjectorTest, NthHitFails) {
  FaultGuard guard;
  auto& injector = FaultInjector::Instance();
  injector.Arm("test.nth", 3);
  EXPECT_FALSE(injector.ShouldFail("test.nth"));
  EXPECT_FALSE(injector.ShouldFail("test.nth"));
  EXPECT_TRUE(injector.ShouldFail("test.nth"));
  EXPECT_FALSE(injector.ShouldFail("test.nth"));
}

TEST(FaultInjectorTest, EveryFaultPointKillsASaveWithoutTearing) {
  FaultGuard guard;
  TempFile file("kill");
  {
    AtomicFileWriter w(file.path());
    ASSERT_TRUE(w.Open().ok());
    ASSERT_TRUE(w.Append("survivor").ok());
    ASSERT_TRUE(w.Commit().ok());
  }
  for (const std::string& point : AtomicFileWriter::FaultPoints()) {
    FaultInjector::Instance().Arm(point);
    AtomicFileWriter w(file.path());
    Status st = w.Open();
    if (st.ok()) st = w.Append("replacement content");
    if (st.ok()) st = w.Commit();
    EXPECT_FALSE(st.ok()) << "fault point " << point << " did not fire";
    EXPECT_NE(st.message().find(point), std::string::npos) << st.ToString();
    // The previous artifact is fully intact and no temp file remains.
    EXPECT_EQ(Slurp(file.path()), "survivor") << "after fault at " << point;
    EXPECT_TRUE(file.TmpLitter().empty()) << "after fault at " << point;
    FaultInjector::Instance().DisarmAll();
  }
}

TEST(FaultInjectorTest, NthWriteKillsMidSequence) {
  FaultGuard guard;
  TempFile file("mid");
  FaultInjector::Instance().Arm(AtomicFileWriter::kFaultWrite, 2);
  AtomicFileWriter w(file.path());
  ASSERT_TRUE(w.Open().ok());
  EXPECT_TRUE(w.Append("first").ok());
  EXPECT_FALSE(w.Append("second").ok());
  EXPECT_FALSE(FileExists(file.path()));
}

TEST(FaultInjectorTest, ProbabilisticModeIsDeterministicPerSeed) {
  FaultGuard guard;
  auto& injector = FaultInjector::Instance();
  auto sample = [&](double p, uint64_t seed) {
    injector.Disarm("test.prob");
    injector.ArmProbabilistic("test.prob", p, seed);
    std::vector<bool> verdicts;
    for (int i = 0; i < 200; ++i) {
      verdicts.push_back(injector.ShouldFail("test.prob"));
    }
    return verdicts;
  };
  // Same seed reproduces the verdict stream exactly; the extremes are
  // exact, and a middling p fires neither never nor always.
  EXPECT_EQ(sample(0.3, 42), sample(0.3, 42));
  const auto never = sample(0.0, 7);
  EXPECT_EQ(std::count(never.begin(), never.end(), true), 0);
  const auto always = sample(1.0, 7);
  EXPECT_EQ(std::count(always.begin(), always.end(), true), 200);
  const auto mid = sample(0.5, 9);
  const auto fired = std::count(mid.begin(), mid.end(), true);
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 200);
}

TEST(FaultInjectorTest, EveryNthModeFiresPeriodically) {
  FaultGuard guard;
  auto& injector = FaultInjector::Instance();
  injector.ArmEveryNth("test.periodic", 3);
  for (int hit = 1; hit <= 12; ++hit) {
    EXPECT_EQ(injector.ShouldFail("test.periodic"), hit % 3 == 0)
        << "hit " << hit;
  }
  EXPECT_EQ(injector.HitCount("test.periodic"), 12);
}

TEST(FaultInjectorTest, LatencyComposesWithFailureModes) {
  FaultGuard guard;
  auto& injector = FaultInjector::Instance();
  // Latency alone: slow but healthy.
  injector.ArmLatency("test.slow", 0.02);
  auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(injector.ShouldFail("test.slow"));
  EXPECT_GE(std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count(),
            0.02);
  // Latency on top of a failure mode: slow-then-fail.
  injector.ArmEveryNth("test.slow", 1);
  start = std::chrono::steady_clock::now();
  EXPECT_TRUE(injector.ShouldFail("test.slow"));
  EXPECT_GE(std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count(),
            0.02);
  // Disarm clears latency, mode and hit counter together.
  injector.Disarm("test.slow");
  EXPECT_FALSE(injector.ShouldFail("test.slow"));
  EXPECT_EQ(injector.HitCount("test.slow"), 1);
}

TEST(FaultInjectorTest, TotalHitsSurvivesDisarm) {
  FaultGuard guard;
  auto& injector = FaultInjector::Instance();
  const uint64_t before = injector.TotalHits("test.total");
  injector.Arm("test.total");
  EXPECT_TRUE(injector.ShouldFail("test.total"));
  injector.Disarm("test.total");
  EXPECT_FALSE(injector.ShouldFail("test.total"));
  injector.DisarmAll();
  EXPECT_FALSE(injector.ShouldFail("test.total"));
  EXPECT_EQ(injector.HitCount("test.total"), 1);
  EXPECT_EQ(injector.TotalHits("test.total") - before, 3u);
}

// Regression: with one shared `<path>.tmp` scratch name, a second
// writer's Open truncated the first writer's half-written scratch and
// a racing Commit could rename torn bytes over the destination. Unique
// per-writer suffixes keep interleaved writers independent.
TEST(AtomicFileWriterTest, InterleavedWritersToOnePathDontClobber) {
  TempFile file("interleave");
  AtomicFileWriter w1(file.path());
  AtomicFileWriter w2(file.path());
  EXPECT_NE(w1.tmp_path(), w2.tmp_path());
  ASSERT_TRUE(w1.Open().ok());
  ASSERT_TRUE(w2.Open().ok());
  ASSERT_TRUE(w1.Append("first writer payload").ok());
  ASSERT_TRUE(w2.Append("second writer payload").ok());
  ASSERT_TRUE(w1.Commit().ok());
  // w1's commit is complete and untorn despite w2's open scratch.
  EXPECT_EQ(Slurp(file.path()), "first writer payload");
  ASSERT_TRUE(w2.Commit().ok());
  // Last successful commit wins, still untorn.
  EXPECT_EQ(Slurp(file.path()), "second writer payload");
  EXPECT_TRUE(file.TmpLitter().empty());
}

TEST(AtomicFileWriterTest, ConcurrentWritersAlwaysLeaveACompletePayload) {
  TempFile file("race");
  constexpr int kWriters = 8;
  constexpr int kRounds = 20;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      const std::string payload(128, static_cast<char>('A' + t));
      for (int r = 0; r < kRounds; ++r) {
        AtomicFileWriter w(file.path());
        if (!w.Open().ok()) continue;
        if (!w.Append(payload).ok()) continue;
        (void)w.Commit();
      }
    });
  }
  for (auto& t : writers) t.join();
  // The destination is exactly one writer's complete payload — never a
  // mix, never truncated — and nobody littered scratch files.
  const std::string contents = Slurp(file.path());
  ASSERT_EQ(contents.size(), 128u);
  for (char c : contents) EXPECT_EQ(c, contents[0]);
  EXPECT_TRUE(file.TmpLitter().empty());
}

TEST(AtomicFileWriterTest, DestructionWithoutCommitRemovesUniqueTmp) {
  TempFile file("drop");
  std::string tmp_path;
  {
    AtomicFileWriter w(file.path());
    tmp_path = w.tmp_path();
    ASSERT_TRUE(w.Open().ok());
    ASSERT_TRUE(w.Append("abandoned mid-save").ok());
    ASSERT_TRUE(FileExists(tmp_path));
  }
  EXPECT_FALSE(FileExists(tmp_path));
  EXPECT_FALSE(FileExists(file.path()));
  EXPECT_TRUE(file.TmpLitter().empty());
}

TEST(BufferReaderTest, ReadsAndBoundsChecks) {
  const std::string buf("\x01\x00\x00\x00rest", 8);
  BufferReader r(buf);
  uint32_t v = 0;
  ASSERT_TRUE(r.ReadPod(&v));
  EXPECT_EQ(v, 1u);
  char text[4];
  ASSERT_TRUE(r.ReadBytes(text, 4));
  EXPECT_EQ(std::string(text, 4), "rest");
  EXPECT_EQ(r.remaining(), 0u);
  uint8_t byte = 0;
  EXPECT_FALSE(r.ReadPod(&byte));  // exhausted
}

TEST(BufferReaderTest, TruncateShrinksWindow) {
  const std::string buf = "abcdef";
  BufferReader r(buf);
  r.Truncate(3);
  char out[4];
  EXPECT_FALSE(r.ReadBytes(out, 4));
  EXPECT_TRUE(r.ReadBytes(out, 3));
}

TEST(ReadFileToStringTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadFileToString("/no/such/ba_file").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace ba::util
