#include "cla/util/error.hpp"

#include <cstdio>
#include <cstdlib>

namespace cla::util {

void throw_error(const std::string& message) { throw Error(message); }

void assert_fail(const char* file, int line, const char* expr, const std::string& message) {
  std::fprintf(stderr, "CLA internal error at %s:%d: assertion `%s` failed: %s\n",
               file, line, expr, message.c_str());
  std::abort();
}

}  // namespace cla::util
