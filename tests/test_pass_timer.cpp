// PassTimer: exclusive lap attribution of a scheduling run's wall time to
// the innermost open pass. These tests spin on the steady clock inside
// nested and recursive scopes and check where the time lands. Bounds are
// loose lower bounds (a preempted spin only adds time to its scope), so
// they hold on a shared CI runner.
#include <gtest/gtest.h>

#include <chrono>

#include "sched/passes/pass_timer.hpp"

namespace cgra::passes {
namespace {

void spin(double ms) {
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
             .count() < ms) {
  }
}

double passSum(const SchedulerMetrics& m) {
  return m.passAnalysisMs + m.passCandidateMs + m.passCostModelMs +
         m.passPlacementMs + m.passRoutingMs + m.passFusingMs + m.passCboxMs +
         m.passLoopMs + m.passFinalizeMs;
}

void expectWellFormed(const SchedulerMetrics& m) {
  for (const double v :
       {m.passAnalysisMs, m.passCandidateMs, m.passCostModelMs,
        m.passPlacementMs, m.passRoutingMs, m.passFusingMs, m.passCboxMs,
        m.passLoopMs, m.passFinalizeMs})
    EXPECT_GE(v, 0.0);
  EXPECT_LE(passSum(m), m.totalMs);
}

TEST(PassTimer, NoScopesChargeNothing) {
  PassTimer timer;
  const PassTimer::Start start = PassTimer::start();
  spin(0.2);
  SchedulerMetrics m;
  timer.flushInto(m, start);
  EXPECT_EQ(passSum(m), 0.0);
  EXPECT_GE(m.totalMs, 0.2);
}

TEST(PassTimer, NestedScopeGetsItsSpinAndParentKeepsTheRest) {
  PassTimer timer;
  const PassTimer::Start start = PassTimer::start();
  {
    PassScope placement(timer, PassId::Placement);
    spin(1.0);
    {
      PassScope routing(timer, PassId::Routing);
      spin(2.0);
    }
    spin(1.0);
  }
  SchedulerMetrics m;
  timer.flushInto(m, start);
  expectWellFormed(m);
  EXPECT_GE(m.passRoutingMs, 1.5);
  EXPECT_GE(m.passPlacementMs, 1.5);
  EXPECT_GE(m.totalMs, 4.0);
  // Only the two opened passes were charged.
  EXPECT_EQ(passSum(m), m.passPlacementMs + m.passRoutingMs);
}

TEST(PassTimer, RecursiveSamePassScopesCountOnce) {
  // The ensureCondition shape: a C-Box scope re-entered for parent
  // conditions, with another pass nested inside the recursion.
  PassTimer timer;
  const PassTimer::Start start = PassTimer::start();
  {
    PassScope placement(timer, PassId::Placement);
    spin(0.5);
    {
      PassScope c1(timer, PassId::CBox);
      spin(0.5);
      {
        PassScope c2(timer, PassId::CBox);
        spin(0.5);
        {
          PassScope c3(timer, PassId::CBox);
          spin(0.5);
          {
            PassScope routing(timer, PassId::Routing);
            spin(1.0);
          }
          spin(0.5);
        }
        spin(0.5);
      }
      spin(0.5);
    }
    spin(0.5);
  }
  SchedulerMetrics m;
  timer.flushInto(m, start);
  expectWellFormed(m);
  EXPECT_GE(m.passCboxMs, 2.25);  // six 0.5 ms spins
  EXPECT_GE(m.passRoutingMs, 0.75);
  EXPECT_GE(m.passPlacementMs, 0.75);
  EXPECT_GE(m.totalMs, 5.0);
}

TEST(PassTimer, ManyShortScopesStayWithinTotal) {
  PassTimer timer;
  const PassTimer::Start start = PassTimer::start();
  for (int i = 0; i < 20000; ++i) {
    PassScope outer(timer, PassId::Placement);
    PassScope same(timer, PassId::Placement);
    PassScope inner(timer, static_cast<PassId>(i % 9));
  }
  SchedulerMetrics m;
  timer.flushInto(m, start);
  expectWellFormed(m);
  EXPECT_GT(passSum(m), 0.0);
}

}  // namespace
}  // namespace cgra::passes
