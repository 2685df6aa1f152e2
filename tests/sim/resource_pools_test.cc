#include "sim/resource_pools.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.h"

namespace fedflow::sim {
namespace {

WarmPoolOptions Opts(size_t max_size, size_t warm_target = 0,
                     size_t quota = 0) {
  WarmPoolOptions o;
  o.max_size = max_size;
  o.warm_target = warm_target;
  o.per_tenant_quota = quota;
  return o;
}

TEST(WarmPoolTest, PinnedSlotIsTheDefaultCheckout) {
  WarmPool pool("p");
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_NE(pool.pinned_slot(), 0u);

  auto out = pool.Acquire("default", "F");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->slot, pool.pinned_slot());
  EXPECT_FALSE(out->created);  // the pinned slot pre-exists
  // A never-booted ledger is cold for every function.
  EXPECT_EQ(out->warmth, SystemState::Warmth::kCold);
  EXPECT_EQ(pool.in_use(), 1u);
  EXPECT_EQ(pool.stats().cold_checkouts, 1);
  EXPECT_EQ(pool.stats().created, 0);
}

TEST(WarmPoolTest, ExhaustedPoolRejectsWithUnavailable) {
  WarmPool pool("p", Opts(1));
  auto a = pool.Acquire("default", "");
  ASSERT_TRUE(a.ok());
  auto b = pool.Acquire("default", "");
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(pool.stats().exhausted_rejections, 1);

  // A return unblocks the next checkout.
  pool.Release(a->slot);
  EXPECT_TRUE(pool.Acquire("default", "").ok());
}

TEST(WarmPoolTest, WarmthProgressesColdWarmHot) {
  WarmPool pool("p", Opts(1));
  auto first = pool.Acquire("t", "F");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->warmth, SystemState::Warmth::kCold);
  first->ledger->MarkRun("F");
  pool.Release(first->slot);

  // Infrastructure warm, G never ran: warm. F ran before: hot.
  auto warm = pool.Acquire("t", "G");
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->warmth, SystemState::Warmth::kWarm);
  warm->ledger->MarkRun("G");
  pool.Release(warm->slot);

  auto hot = pool.Acquire("t", "F");
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(hot->warmth, SystemState::Warmth::kHot);

  WarmPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.cold_checkouts, 1);
  EXPECT_EQ(stats.warm_checkouts, 1);
  EXPECT_EQ(stats.hot_checkouts, 1);
}

TEST(WarmPoolTest, CheckoutPrefersMostRecentlyReturnedSlot) {
  WarmPool pool("p", Opts(3));
  auto a = pool.Acquire("t", "");
  auto b = pool.Acquire("t", "");
  auto c = pool.Acquire("t", "");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(pool.stats().created, 2);  // pinned slot plus two fresh ones

  // Return b, then c: c is the most recently used idle slot.
  pool.Release(b->slot);
  pool.Release(c->slot);
  auto next = pool.Acquire("t", "");
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->slot, c->slot);
}

TEST(WarmPoolTest, HotAffinityBeatsMruRecency) {
  WarmPool pool("p", Opts(3));
  auto a = pool.Acquire("t", "");
  auto b = pool.Acquire("t", "");
  auto c = pool.Acquire("t", "");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  b->ledger->MarkRun("F");
  pool.Release(b->slot);
  pool.Release(c->slot);  // c is MRU, but only b is hot for F

  auto hot = pool.Acquire("t", "F");
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(hot->slot, b->slot);
  EXPECT_EQ(hot->warmth, SystemState::Warmth::kHot);
}

TEST(WarmPoolTest, LruEvictionBeyondWarmTargetIsDeterministic) {
  // warm_target 1: after a burst of three, returns trim idle slots down to
  // one, least recently used first. The pinned slot is never evicted even
  // when it is the LRU.
  WarmPool pool("p", Opts(3, 1));
  auto a = pool.Acquire("t", "");  // pinned
  auto b = pool.Acquire("t", "");
  auto c = pool.Acquire("t", "");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  const uint64_t pinned = pool.pinned_slot();
  EXPECT_EQ(a->slot, pinned);

  // Release the pinned slot first (making it LRU-idle), then b: idle is
  // {pinned, b} = 2 > warm_target 1, and the evictee must be b — the LRU
  // among evictable slots.
  std::vector<uint64_t> evicted = pool.Release(a->slot);
  EXPECT_TRUE(evicted.empty());
  evicted = pool.Release(b->slot);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], b->slot);

  // Releasing c evicts c for the same reason; the pool is back to the
  // pinned slot only.
  evicted = pool.Release(c->slot);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], c->slot);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.stats().evicted, 2);
}

TEST(WarmPoolTest, TenantQuotaRejectsWithoutTouchingThePool) {
  WarmPool pool("p", Opts(3, 0, 1));
  auto a = pool.Acquire("alice", "");
  ASSERT_TRUE(a.ok());

  auto again = pool.Acquire("alice", "");
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(pool.stats().quota_rejections, 1);
  EXPECT_EQ(pool.in_use(), 1u);  // the rejection consumed nothing

  // Another tenant still fits; alice fits again after her return.
  EXPECT_TRUE(pool.Acquire("bob", "").ok());
  pool.Release(a->slot);
  EXPECT_TRUE(pool.Acquire("alice", "").ok());
}

TEST(WarmPoolTest, RebootDropsWarmSlotsAndBootsThePinnedLedger) {
  WarmPool pool("p", Opts(3));
  auto a = pool.Acquire("t", "");
  auto b = pool.Acquire("t", "");
  ASSERT_TRUE(a.ok() && b.ok());
  a->ledger->MarkRun("F");
  pool.Release(a->slot);
  pool.Release(b->slot);
  ASSERT_EQ(pool.size(), 2u);

  std::vector<uint64_t> evicted = pool.Reboot();
  EXPECT_EQ(evicted.size(), 1u);
  EXPECT_EQ(pool.size(), 1u);
  // Everything is cold again, including the pinned ledger.
  auto out = pool.Acquire("t", "F");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->warmth, SystemState::Warmth::kCold);
}

TEST(WarmPoolTest, GaugesTrackOccupancy) {
  obs::MetricsRegistry metrics;
  WarmPool pool("ctrl", Opts(2));
  pool.AttachMetrics(&metrics);
  auto a = pool.Acquire("t", "");
  auto b = pool.Acquire("t", "");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(metrics.gauge("pool.ctrl.in_use"), 2);
  EXPECT_EQ(metrics.gauge("pool.ctrl.idle"), 0);
  pool.Release(a->slot);
  pool.Release(b->slot);
  EXPECT_EQ(metrics.gauge("pool.ctrl.in_use"), 0);
  EXPECT_EQ(metrics.gauge("pool.ctrl.idle"), 2);
  EXPECT_EQ(metrics.gauge("pool.ctrl.max_in_use"), 2);  // high-water mark
  EXPECT_EQ(metrics.counter("pool.ctrl.created"), 1u);
}

}  // namespace
}  // namespace fedflow::sim
