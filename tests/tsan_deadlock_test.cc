// Runtime half of lock-order checking (DESIGN.md §9): TSan's deadlock
// detector reports an inverted acquisition order over scidb::Mutex even
// in one thread that never deadlocks — the order is the bug. The static
// half is staticcheck's lock-order pass (LockOrderPass.* in
// staticcheck_test). Only a -fsanitize=thread build can run these cases;
// every other build skips them.

#include <gtest/gtest.h>

#include "common/mutex.h"

#if defined(__SANITIZE_THREAD__)
// The death tests need TSan's first report to end the process. An
// explicit TSAN_OPTIONS still overrides this default.
extern "C" const char* __tsan_default_options() { return "halt_on_error=1"; }
#endif

namespace scidb {
namespace {

#if defined(__SANITIZE_THREAD__)
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif

constexpr const char* kNeedsTsan = "needs a -fsanitize=thread build";

TEST(TsanDeadlockTest, ConsistentNestingIsQuiet) {
  if (!kTsan) GTEST_SKIP() << kNeedsTsan;
  // The non-death control: the locks below, one order throughout.
  Mutex a;
  Mutex b;
  Mutex c;
  for (int i = 0; i < 3; ++i) {
    MutexLock la(a);
    MutexLock lb(b);
    MutexLock lc(c);
  }
}

TEST(TsanDeadlockDeathTest, DirectInversionIsReported) {
  if (!kTsan) GTEST_SKIP() << kNeedsTsan;
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex a;
        Mutex b;
        {
          MutexLock la(a);
          MutexLock lb(b);  // NOLINT(lock-order): inversion under test — TSan must report it
        }
        {
          MutexLock lb(b);
          MutexLock la(a);  // inversion: b held while acquiring a
        }
      },
      "lock-order-inversion");
}

TEST(TsanDeadlockDeathTest, ThreeLockCycleIsReported) {
  if (!kTsan) GTEST_SKIP() << kNeedsTsan;
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // a -> b and b -> c are consistent; c -> a closes the cycle two hops
  // away, with no pair ever taken in both orders.
  EXPECT_DEATH(
      {
        Mutex a;
        Mutex b;
        Mutex c;
        {
          MutexLock la(a);
          MutexLock lb(b);  // NOLINT(lock-order): cycle under test — TSan must report it
        }
        {
          MutexLock lb(b);
          MutexLock lc(c);
        }
        {
          MutexLock lc(c);
          MutexLock la(a);  // closes the cycle: c held while acquiring a
        }
      },
      "lock-order-inversion");
}

}  // namespace
}  // namespace scidb
