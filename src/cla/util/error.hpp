// Error handling primitives shared across the CLA library.
//
// The library throws cla::util::Error for recoverable, user-facing failures
// (bad trace file, malformed input) and uses CLA_ASSERT for internal
// invariants whose violation indicates a bug in CLA itself.
#pragma once

#include <stdexcept>
#include <string>

namespace cla::util {

/// Exception type for all user-facing CLA failures.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A trace failed semantic validation under --strictness=strict (the
/// collected diagnostics contain error/fatal findings). CLI exit code 5.
class ValidationError : public Error {
 public:
  explicit ValidationError(const std::string& what) : Error(what) {}
};

/// The analysis hit a resource guard (--deadline-ms / --max-events) and
/// stopped cleanly instead of hanging or exhausting memory. Exit code 4.
class ResourceLimitError : public Error {
 public:
  explicit ResourceLimitError(const std::string& what) : Error(what) {}
};

/// The trace *file* could not be read — unlinked mid-analysis, permission
/// denied, device error — as opposed to a readable file with bad contents.
/// Reported as CLA_E_TRACE_IO with the captured errno; CLI exit code 1.
class TraceIoError : public Error {
 public:
  TraceIoError(const std::string& what, int error)
      : Error(what), errno_(error) {}
  int saved_errno() const noexcept { return errno_; }

 private:
  int errno_ = 0;
};

/// Throws an Error carrying `message`: the reason, for the user to read.
[[noreturn]] void throw_error(const std::string& message);

/// Aborts with a diagnostic; used for internal invariant violations.
[[noreturn]] void assert_fail(const char* file, int line, const char* expr, const std::string& message);

}  // namespace cla::util

/// Throws cla::util::Error if `cond` does not hold (recoverable failure).
#define CLA_CHECK(cond, msg)                          \
  do {                                                \
    if (!(cond)) ::cla::util::throw_error((msg));     \
  } while (0)

/// Aborts if `cond` does not hold (internal invariant; a CLA bug).
#define CLA_ASSERT(cond, msg)                                          \
  do {                                                                 \
    if (!(cond)) ::cla::util::assert_fail(__FILE__, __LINE__, #cond, (msg)); \
  } while (0)
