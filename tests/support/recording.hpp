// One recording session the way the pthread backend and the LD_PRELOAD
// interposer record: the recorder streams to a fresh file in the temp
// directory, and finish() closes the session and loads the file back
// through the strict loader.
#pragma once

#include <stdlib.h>
#include <unistd.h>

#include <cstddef>
#include <filesystem>
#include <string>

#include "cla/runtime/recorder.hpp"
#include "cla/trace/trace.hpp"
#include "cla/trace/trace_io.hpp"
#include "cla/util/error.hpp"

namespace cla::test_support {

class RecordingSession {
 public:
  /// Opens a session of `recorder` (the process-wide one by default) with
  /// rings of 2 x `buffer_events` slots.
  explicit RecordingSession(rt::Recorder& recorder = rt::Recorder::instance(),
                            std::size_t buffer_events = std::size_t{1} << 16)
      : recorder_(&recorder) {
    path_ = (std::filesystem::temp_directory_path() / "cla_test_XXXXXX.clat")
                .string();
    const int fd = ::mkstemps(path_.data(), 5);
    CLA_CHECK(fd >= 0, "cannot create a temp trace file");
    ::close(fd);
    try {
      recorder.start_streaming(path_, buffer_events);
    } catch (...) {
      ::unlink(path_.c_str());
      throw;
    }
  }

  /// Finishes a session still open and deletes its file.
  ~RecordingSession() {
    recorder_->finish_streaming();
    ::unlink(path_.c_str());
  }

  RecordingSession(const RecordingSession&) = delete;
  RecordingSession& operator=(const RecordingSession&) = delete;

  /// Closes the session and returns the trace it recorded.
  trace::Trace finish() {
    recorder_->finish_streaming();
    return trace::read_trace_file(path_);
  }

 private:
  rt::Recorder* recorder_;
  std::string path_;
};

}  // namespace cla::test_support
