#ifndef SCIDB_COMMON_LOGGING_H_
#define SCIDB_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace scidb {
namespace internal {

// Accumulates a fatal-error message and aborts the process when destroyed.
// Used by SCIDB_CHECK; invariant violations are programming errors and the
// engine terminates rather than attempting to limp on (the no-exception
// policy means there is no recovery channel for logic bugs).
class FatalLogMessage {
 public:
  FatalLogMessage(const char* file, int line) {
    stream_ << "FATAL " << file << ":" << line << " ";
  }
  // Prints the message, then the flight-recorder timeline (DESIGN.md §12),
  // then aborts. Defined in flight_recorder.cc.
  [[noreturn]] ~FatalLogMessage();
  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal
}  // namespace scidb

#define SCIDB_CHECK(cond)                                       \
  (cond) ? (void)0                                              \
         : ::scidb::internal::FatalLogMessageVoidify() &        \
               ::scidb::internal::FatalLogMessage(__FILE__, __LINE__) \
                   .stream()                                    \
               << "Check failed: " #cond " "

#define SCIDB_DCHECK(cond) SCIDB_CHECK(cond)

namespace scidb {
namespace internal {
// Allows the ternary in SCIDB_CHECK to have void type on both branches.
struct FatalLogMessageVoidify {
  void operator&(std::ostream&) {}
};
}  // namespace internal
}  // namespace scidb

#endif  // SCIDB_COMMON_LOGGING_H_
