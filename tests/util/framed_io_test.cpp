// The shared framed-file layer (util/framed_io.hpp) on its own: the
// retrying write/read loop under staged CLA_FAULT_* conditions, the frame
// codec for both magics the repository uses ("CLCH" trace chunks, "CLAR"
// agg records) and the payload field codec. The trace and agg fault
// matrices reach these paths only end to end; here each rule is pinned
// directly.
#include "cla/util/framed_io.hpp"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cla/util/error.hpp"
#include "cla/util/faultinject.hpp"

namespace cla::util::io {
namespace {

constexpr char kTraceMagic[4] = {'C', 'L', 'C', 'H'};
constexpr char kAggMagic[4] = {'C', 'L', 'A', 'R'};

// A ladder that never sleeps long, so retry cases stay fast.
constexpr RetryPolicy kFast{3, 1'000, 4'000, true};

class FramedIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clear_knobs();
    path_ = (std::filesystem::temp_directory_path() /
             ("cla_framed_io_" + std::to_string(::getpid()) + ".bin"))
                .string();
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    ASSERT_GE(fd_, 0);
  }
  void TearDown() override {
    ::close(fd_);
    std::remove(path_.c_str());
    clear_knobs();
  }

  static void clear_knobs() {
    for (const char* knob :
         {"CLA_FAULT_WRITE_ERRNO", "CLA_FAULT_WRITE_EVERY",
          "CLA_FAULT_WRITE_COUNT", "CLA_FAULT_WRITE_AFTER_BYTES",
          "CLA_FAULT_SHORT_WRITE", "CLA_FAULT_READ_ERRNO",
          "CLA_FAULT_READ_EVERY", "CLA_FAULT_READ_COUNT",
          "CLA_FAULT_SHORT_READ"}) {
      ::unsetenv(knob);
    }
    fault::reinit_for_tests();
  }

  /// Replaces every knob with `knobs`.
  static void arm(
      std::initializer_list<std::pair<const char*, std::string>> knobs) {
    clear_knobs();
    for (const auto& [name, value] : knobs) ::setenv(name, value.c_str(), 1);
    fault::reinit_for_tests();
  }

  std::string contents() const {
    std::ifstream in(path_, std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
  }

  std::string path_;
  int fd_ = -1;
};

TEST_F(FramedIoTest, ShortWritesSplitAnIovecAndContinue) {
  arm({{"CLA_FAULT_SHORT_WRITE", "4"}});
  char a[] = "abc", b[] = "defgh", c[] = "ij";
  ::iovec iov[3] = {{a, 3}, {b, 5}, {c, 2}};
  const IoResult r = write_all(fd_, iov, 3, kFilePosition, kFast);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.done, 10u);
  EXPECT_EQ(r.retries, 0u);  // a short write is progress, not a retry
  for (const ::iovec& v : iov) EXPECT_EQ(v.iov_len, 0u);
  EXPECT_EQ(contents(), "abcdefghij");

  // The same split at an offset goes through pwritev.
  char d[] = "XYZ", e[] = "UVW";
  ::iovec at[2] = {{d, 3}, {e, 3}};
  EXPECT_TRUE(write_all(fd_, at, 2, 2, kFast).ok());
  EXPECT_EQ(contents(), "abXYZUVWij");
}

TEST_F(FramedIoTest, EintrRestartsWithoutSpendingARetry) {
  arm({{"CLA_FAULT_WRITE_ERRNO", "EINTR"}, {"CLA_FAULT_WRITE_COUNT", "5"}});
  const IoResult r =
      write_all(fd_, "payload", 7, kFilePosition, kFast.with_retries(0));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.retries, 5u);
  EXPECT_EQ(contents(), "payload");
}

TEST_F(FramedIoTest, TransientErrorThenSuccessInsideTheLadder) {
  arm({{"CLA_FAULT_WRITE_ERRNO", "ENOSPC"}, {"CLA_FAULT_WRITE_COUNT", "2"}});
  const IoResult r = write_all(fd_, "abc", 3, 0, kFast);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.retries, 2u);
  EXPECT_EQ(contents(), "abc");

  // One retry fewer than the failures: the budget runs out.
  arm({{"CLA_FAULT_WRITE_ERRNO", "ENOSPC"}, {"CLA_FAULT_WRITE_COUNT", "2"}});
  const IoResult out = write_all(fd_, "abc", 3, 0, kFast.with_retries(1));
  EXPECT_EQ(out.status, IoStatus::Failed);
  EXPECT_TRUE(transient_errno(out.error));
  EXPECT_EQ(out.error, ENOSPC);
  EXPECT_EQ(errno, ENOSPC);
  EXPECT_EQ(out.retries, 1u);
}

TEST_F(FramedIoTest, PermanentErrnoFailsAtOnce) {
  arm({{"CLA_FAULT_WRITE_ERRNO", std::to_string(EBADF)}});
  const IoResult r = write_all(fd_, "abc", 3, kFilePosition, kDiskRetry);
  EXPECT_EQ(r.status, IoStatus::Failed);
  EXPECT_FALSE(transient_errno(r.error));
  EXPECT_EQ(r.error, EBADF);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(r.done, 0u);
  EXPECT_TRUE(transient_errno(ENOSPC));
  EXPECT_TRUE(transient_errno(EIO));
  EXPECT_FALSE(transient_errno(EBADF));
  EXPECT_FALSE(transient_errno(EINTR));  // restarted, never "retried"
}

TEST_F(FramedIoTest, UninjectedCallsLeaveTheInjectorCountersAlone) {
  // Every 2nd consulted write fails. Uninjected writes in between must
  // not advance the call counter, or the first injected write would fail.
  arm({{"CLA_FAULT_WRITE_ERRNO", "ENOSPC"}, {"CLA_FAULT_WRITE_EVERY", "2"}});
  const RetryPolicy once = kFast.with_retries(0);
  const RetryPolicy uninjected = once.without_injection();
  EXPECT_TRUE(write_all(fd_, "aa", 2, kFilePosition, uninjected).ok());
  EXPECT_TRUE(write_all(fd_, "bb", 2, kFilePosition, uninjected).ok());
  EXPECT_TRUE(write_all(fd_, "cc", 2, kFilePosition, once).ok());    // call 1
  EXPECT_FALSE(write_all(fd_, "dd", 2, kFilePosition, once).ok());   // call 2
  EXPECT_EQ(contents(), "aabbcc");

  // The byte counter likewise: only consulted attempts count toward it.
  arm({{"CLA_FAULT_WRITE_ERRNO", "ENOSPC"},
       {"CLA_FAULT_WRITE_AFTER_BYTES", "4"}});
  EXPECT_TRUE(write_all(fd_, "0123456789", 10, 0, uninjected).ok());
  EXPECT_TRUE(write_all(fd_, "ab", 2, 0, once).ok());   // 0 bytes seen before
  EXPECT_TRUE(write_all(fd_, "cd", 2, 2, once).ok());   // 2 seen
  EXPECT_FALSE(write_all(fd_, "ef", 2, 4, once).ok());  // 4 seen: fails

  // Reads mirror it.
  arm({{"CLA_FAULT_READ_ERRNO", "EIO"}, {"CLA_FAULT_READ_EVERY", "2"}});
  char buf[2];
  EXPECT_TRUE(read_all(fd_, buf, 2, 0, uninjected).ok());
  EXPECT_TRUE(read_all(fd_, buf, 2, 0, once).ok());
  EXPECT_FALSE(read_all(fd_, buf, 2, 0, once).ok());
}

TEST_F(FramedIoTest, ReadsContinueShortReadsAndReportEndOfFile) {
  ASSERT_TRUE(write_all(fd_, "0123456789", 10, 0, kFast).ok());
  arm({{"CLA_FAULT_SHORT_READ", "3"}});
  char buf[16] = {};
  IoResult r = read_all(fd_, buf, 8, 1, kFast);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(std::string(buf, 8), "12345678");
  r = read_all(fd_, buf, 8, 5, kFast);
  EXPECT_EQ(r.status, IoStatus::Short);
  EXPECT_EQ(r.done, 5u);

  arm({{"CLA_FAULT_READ_ERRNO", "EIO"}, {"CLA_FAULT_READ_COUNT", "2"}});
  r = read_all(fd_, buf, 4, 0, kFast);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.retries, 2u);

  // At the file position, reads work on a pipe too (no pread there).
  int ends[2];
  ASSERT_EQ(::pipe(ends), 0);
  ASSERT_EQ(::write(ends[1], "pipe", 4), 4);
  ::close(ends[1]);
  EXPECT_TRUE(read_all(ends[0], buf, 2, kFilePosition, kFast).ok());
  r = read_all(ends[0], buf + 2, 4, kFilePosition, kFast);
  EXPECT_EQ(r.status, IoStatus::Short);
  EXPECT_EQ(std::string(buf, 2 + r.done), "pipe");
  ::close(ends[0]);
}

std::string frame(const char* magic, std::uint32_t kind,
                  const std::string& payload) {
  std::string out;
  append_frame(out, magic, kind, payload.data(), payload.size());
  return out;
}

const unsigned char* bytes(const std::string& s) {
  return reinterpret_cast<const unsigned char*>(s.data());
}

TEST(FrameCodec, RendersAndChecksAFrameForBothMagics) {
  for (const char* magic : {kTraceMagic, kAggMagic}) {
    const std::string f = frame(magic, 7, "hello");
    ASSERT_EQ(f.size(), kFrameHeaderBytes + 5);
    EXPECT_EQ(f.compare(0, 4, magic, 4), 0);
    FrameHeader h;
    EXPECT_EQ(check_frame(bytes(f), f.size(), 0, magic, h), FrameCheck::Ok);
    EXPECT_EQ(h.kind, 7u);
    EXPECT_EQ(h.payload_bytes, 5u);
    EXPECT_TRUE(parse_frame_header(f.data(), magic, h));

    // render_frame into a fixed buffer yields the same bytes.
    unsigned char fixed[kFrameHeaderBytes + 5];
    render_frame(fixed, magic, 7, "hello", 5);
    EXPECT_EQ(std::string(reinterpret_cast<char*>(fixed), sizeof fixed), f);
  }
}

TEST(FrameCodec, RejectsCrcFlipOverCapLengthForeignMagicAndTruncation) {
  const std::string good = frame(kTraceMagic, 1, "payload");
  FrameHeader h;

  std::string flipped = good;
  flipped[kFrameHeaderBytes + 2] ^= 0x01;
  EXPECT_EQ(check_frame(bytes(flipped), flipped.size(), 0, kTraceMagic, h),
            FrameCheck::BadCrc);

  std::string over_cap = good;
  const std::uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(over_cap.data() + 8, &huge, 4);
  EXPECT_EQ(check_frame(bytes(over_cap), over_cap.size(), 0, kTraceMagic, h),
            FrameCheck::BadSize);
  EXPECT_FALSE(parse_frame_header(over_cap.data(), kTraceMagic, h));

  EXPECT_EQ(check_frame(bytes(good), good.size(), 0, kAggMagic, h),
            FrameCheck::NoHeader);
  EXPECT_FALSE(parse_frame_header(good.data(), kAggMagic, h));

  EXPECT_EQ(check_frame(bytes(good), good.size() - 1, 0, kTraceMagic, h),
            FrameCheck::Truncated);
  EXPECT_EQ(check_frame(bytes(good), kFrameHeaderBytes - 1, 0, kTraceMagic, h),
            FrameCheck::NoHeader);
}

TEST(FrameCodec, ResyncFindsTheNextValidFrameForBothMagics) {
  for (const char* magic : {kTraceMagic, kAggMagic}) {
    std::string bad = frame(magic, 2, "damaged");
    bad[kFrameHeaderBytes] ^= 0x10;  // a magic whose frame fails its CRC
    const std::string good = frame(magic, 3, "intact");
    const char* foreign = magic == kTraceMagic ? kAggMagic : kTraceMagic;
    const std::string other = frame(foreign, 4, "foreign");
    const std::string buf = "junk" + bad + other + "xx" + good + "tail";
    const std::size_t want = 4 + bad.size() + other.size() + 2;
    FrameHeader h;

    EXPECT_EQ(find_magic(buf.data(), buf.size(), magic), 4u);
    EXPECT_EQ(next_valid_frame(bytes(buf), buf.size(), 0, magic, &h), want);
    EXPECT_EQ(h.kind, 3u);
    EXPECT_EQ(next_valid_frame(bytes(buf), buf.size(), want, magic, &h), want);
    EXPECT_EQ(next_valid_frame(bytes(buf), buf.size(), want + 1, magic, &h),
              std::string::npos);
    // A frame cut by the end of the buffer is not valid.
    const std::size_t cut = want + good.size() - 1;
    EXPECT_EQ(next_valid_frame(bytes(buf), cut, 0, magic, &h),
              std::string::npos);
  }
}

TEST(FieldCodec, RoundTripsAndBoundsChecksEveryField) {
  std::string payload;
  put_u32(payload, 0xA1B2C3D4u);
  put_u64(payload, 0x0102030405060708ull);
  put_str(payload, "name");
  put_str(payload, "");
  ASSERT_EQ(payload.size(), 4u + 8u + 4u + 4u + 4u);

  FieldReader r{bytes(payload), payload.size()};
  std::uint32_t a = 0;
  std::uint64_t b = 0;
  std::string s, empty = "x";
  EXPECT_TRUE(r.u32(a));
  EXPECT_TRUE(r.u64(b));
  EXPECT_TRUE(r.str(&s, 4));
  EXPECT_TRUE(r.str(&empty, 4));
  EXPECT_EQ(a, 0xA1B2C3D4u);
  EXPECT_EQ(b, 0x0102030405060708ull);
  EXPECT_EQ(s, "name");
  EXPECT_EQ(empty, "");
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_FALSE(r.u32(a));  // nothing left: consumes nothing
  EXPECT_EQ(r.pos, payload.size());

  // Over the cap: fails after consuming only the length field.
  FieldReader capped{bytes(payload), payload.size(), 12};
  EXPECT_FALSE(capped.str(&s, 3));
  EXPECT_EQ(capped.pos, 16u);
  // Cut short: a u64 with 7 bytes left consumes nothing.
  FieldReader cut{bytes(payload), 11, 4};
  EXPECT_FALSE(cut.u64(b));
  EXPECT_EQ(cut.pos, 4u);
  // Validate-only string read.
  FieldReader check{bytes(payload), payload.size(), 12};
  EXPECT_TRUE(check.str(nullptr, 4));
  EXPECT_EQ(check.pos, 20u);
}

}  // namespace
}  // namespace cla::util::io
