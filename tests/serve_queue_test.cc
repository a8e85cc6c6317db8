/**
 * @file
 * Admission-control tests for the serve daemon's bounded, laned
 * queue: the depth bounds *outstanding* work (queued + inflight)
 * across every lane, rejections are typed and counted, each lane
 * drains in weighted round-robin order, and the ledger stays coherent
 * -- enqueued == completed + queued + inflight + shedDeadline +
 * shedEvicted at every snapshot, globally and per priority class.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "rl/serve/queue.h"

namespace {

using namespace racelogic::serve;

// QueuedJob::shard picks the lane, so tests tell jobs apart by a tag
// that the job's run closure reports.
int reportedTag = -1;

QueuedJob
taggedJob(int tag, Priority priority = Priority::Normal, size_t lane = 0)
{
    QueuedJob job;
    job.shard = lane;
    job.priority = priority;
    job.run = [tag] { reportedTag = tag; };
    return job;
}

QueuedJob
noopJob(size_t lane = 0)
{
    return QueuedJob{lane, [] {}};
}

int
tagOf(QueuedJob &job)
{
    reportedTag = -1;
    job.run();
    return reportedTag;
}

/** Retire drained jobs as the daemon's lane threads do. */
void
retire(RequestQueue &queue, const std::vector<QueuedJob> &jobs)
{
    for (const QueuedJob &job : jobs)
        queue.markDone(job.priority);
}

QueuedJob
expiredJob(int tag, size_t lane = 0)
{
    QueuedJob job = taggedJob(tag, Priority::Normal, lane);
    job.deadline =
        std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
    return job;
}

// The class ledgers partition the global one.
void
expectLedgerCoherent(const QueueStats &stats)
{
    EXPECT_EQ(stats.enqueued, stats.completed + stats.queued +
                                  stats.inflight + stats.shedDeadline +
                                  stats.shedEvicted);
    uint64_t enq = 0, done = 0, queued = 0, shedD = 0, shedE = 0;
    for (const ClassStats &c : stats.classes) {
        enq += c.enqueued;
        done += c.completed;
        queued += c.queued;
        shedD += c.shedDeadline;
        shedE += c.shedEvicted;
    }
    EXPECT_EQ(enq, stats.enqueued);
    EXPECT_EQ(done, stats.completed);
    EXPECT_EQ(queued, stats.queued);
    EXPECT_EQ(shedD, stats.shedDeadline);
    EXPECT_EQ(shedE, stats.shedEvicted);
}

TEST(ServeQueue, AdmitsUpToDepthThenRejectsTyped)
{
    RequestQueue queue(1, 3);
    EXPECT_EQ(queue.tryPush(noopJob()), RequestQueue::Admit::Accepted);
    EXPECT_EQ(queue.tryPush(noopJob()), RequestQueue::Admit::Accepted);
    EXPECT_EQ(queue.tryPush(noopJob()), RequestQueue::Admit::Accepted);
    EXPECT_EQ(queue.tryPush(noopJob()), RequestQueue::Admit::QueueFull);
    EXPECT_EQ(queue.tryPush(noopJob()), RequestQueue::Admit::QueueFull);

    const QueueStats stats = queue.stats();
    EXPECT_EQ(stats.enqueued, 3u);
    EXPECT_EQ(stats.queued, 3u);
    EXPECT_EQ(stats.rejectedQueueFull, 2u);
    EXPECT_EQ(stats.highWater, 3u);
}

TEST(ServeQueue, DepthBoundsOutstandingNotJustBuffered)
{
    // Draining moves jobs to inflight; the bound must still hold, or
    // QueueFull would depend on lane-thread timing.
    RequestQueue queue(1, 2);
    ASSERT_EQ(queue.tryPush(noopJob()), RequestQueue::Admit::Accepted);
    ASSERT_EQ(queue.tryPush(noopJob()), RequestQueue::Admit::Accepted);

    const auto batch = queue.drain(0, 8);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(queue.stats().queued, 0u);
    EXPECT_EQ(queue.stats().inflight, 2u);

    // Buffer is empty, but both jobs are still outstanding.
    EXPECT_EQ(queue.tryPush(noopJob()), RequestQueue::Admit::QueueFull);

    queue.markDone(Priority::Normal);
    EXPECT_EQ(queue.tryPush(noopJob()), RequestQueue::Admit::Accepted);
}

TEST(ServeQueue, DrainPreservesFifoOrderAndCapsBatch)
{
    RequestQueue queue(1, 8);
    for (int i = 0; i < 5; ++i)
        ASSERT_EQ(queue.tryPush(taggedJob(i)),
                  RequestQueue::Admit::Accepted);

    auto first = queue.drain(0, 3);
    ASSERT_EQ(first.size(), 3u);
    EXPECT_EQ(tagOf(first[0]), 0);
    EXPECT_EQ(tagOf(first[2]), 2);

    auto rest = queue.drain(0, 8);
    ASSERT_EQ(rest.size(), 2u);
    EXPECT_EQ(tagOf(rest[0]), 3);
    EXPECT_EQ(tagOf(rest[1]), 4);
}

TEST(ServeQueue, LedgerStaysCoherent)
{
    RequestQueue queue(1, 4);
    queue.noteRejected(Status::Oversized);
    queue.noteRejected(Status::BadRequest);
    for (int i = 0; i < 4; ++i)
        ASSERT_EQ(queue.tryPush(noopJob()),
                  RequestQueue::Admit::Accepted);
    (void)queue.tryPush(noopJob()); // QueueFull
    retire(queue, queue.drain(0, 2));

    const QueueStats stats = queue.stats();
    EXPECT_EQ(stats.enqueued,
              stats.completed + stats.queued + stats.inflight);
    EXPECT_EQ(stats.rejected(), 3u);
    EXPECT_EQ(stats.rejectedOversized, 1u);
    EXPECT_EQ(stats.rejectedBadRequest, 1u);
    EXPECT_EQ(stats.rejectedQueueFull, 1u);
}

TEST(ServeQueue, HighWaterTracksThePeakNotThePresent)
{
    RequestQueue queue(1, 8);
    for (int i = 0; i < 6; ++i)
        ASSERT_EQ(queue.tryPush(noopJob()),
                  RequestQueue::Admit::Accepted);
    retire(queue, queue.drain(0, 6));
    EXPECT_EQ(queue.stats().queued, 0u);
    EXPECT_EQ(queue.stats().inflight, 0u);
    EXPECT_EQ(queue.stats().highWater, 6u);
}

TEST(ServeQueue, ShutdownRejectsNewWorkButDrainsOld)
{
    RequestQueue queue(1, 4);
    ASSERT_EQ(queue.tryPush(taggedJob(7)), RequestQueue::Admit::Accepted);
    queue.beginShutdown();

    EXPECT_EQ(queue.tryPush(noopJob()),
              RequestQueue::Admit::ShuttingDown);
    EXPECT_EQ(queue.stats().rejectedShutdown, 1u);

    auto batch = queue.drain(0, 4);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(tagOf(batch[0]), 7);
    retire(queue, batch);

    // Nothing left: drain must return empty instead of blocking.
    EXPECT_TRUE(queue.drain(0, 4).empty());
}

TEST(ServeQueue, DrainShedsExpiredJobs)
{
    RequestQueue queue(1, 8);
    int shedRan = 0;

    QueuedJob expired = expiredJob(2);
    expired.onShed = [&](Status) { ++shedRan; };

    ASSERT_EQ(queue.tryPush(std::move(expired)),
              RequestQueue::Admit::Accepted);
    ASSERT_EQ(queue.tryPush(taggedJob(1)), RequestQueue::Admit::Accepted);

    std::vector<QueuedJob> shed;
    auto batch = queue.drain(0, 8, &shed);
    ASSERT_EQ(batch.size(), 1u);
    ASSERT_EQ(shed.size(), 1u);

    // Shed jobs are never inflight; only the raced job is.
    QueueStats stats = queue.stats();
    EXPECT_EQ(stats.shedDeadline, 1u);
    EXPECT_EQ(stats.inflight, 1u);
    EXPECT_EQ(stats.queued, 0u);

    EXPECT_EQ(tagOf(batch[0]), 1);
    for (auto &job : shed)
        job.onShed(Status::DeadlineExceeded);
    EXPECT_EQ(shedRan, 1);
    EXPECT_EQ(tagOf(shed[0]), 2);
    retire(queue, batch);

    // Ledger: enqueued == completed + queued + inflight + shedDeadline.
    stats = queue.stats();
    EXPECT_EQ(stats.enqueued, stats.completed + stats.queued +
                                  stats.inflight + stats.shedDeadline);
    EXPECT_EQ(stats.completed, 1u);
}

TEST(ServeQueue, NullShedDrainsExpiredJobsNormally)
{
    // Callers that pass no shed vector (the pre-deadline behavior)
    // must see expired jobs drain like any other.
    RequestQueue queue(1, 4);
    ASSERT_EQ(queue.tryPush(expiredJob(3)), RequestQueue::Admit::Accepted);

    auto batch = queue.drain(0, 4);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(tagOf(batch[0]), 3);
    EXPECT_EQ(queue.stats().shedDeadline, 0u);
    retire(queue, batch);
}

TEST(ServeQueue, SheddingReleasesAdmissionCapacity)
{
    // Shed jobs retire immediately: the slot they held must be free
    // for new work without any markDone().
    RequestQueue queue(1, 1);
    ASSERT_EQ(queue.tryPush(expiredJob(0)), RequestQueue::Admit::Accepted);
    ASSERT_EQ(queue.tryPush(noopJob()), RequestQueue::Admit::QueueFull);

    // The lane is non-empty, so drain() does not block; with the
    // only job shed, the batch comes back empty.
    std::vector<QueuedJob> shed;
    EXPECT_TRUE(queue.drain(0, 4, &shed).empty());
    ASSERT_EQ(shed.size(), 1u);
    EXPECT_EQ(queue.tryPush(noopJob()), RequestQueue::Admit::Accepted);
}

TEST(ServeQueue, ShutdownLaneEndsOnceShedEmptiesIt)
{
    // If shedding retires a lane's last job during shutdown, the
    // lane's next drain returns empty instead of blocking, and the
    // ledger has nothing outstanding.
    RequestQueue queue(1, 4);
    ASSERT_EQ(queue.tryPush(expiredJob(0)), RequestQueue::Admit::Accepted);
    queue.beginShutdown();

    std::vector<QueuedJob> shed;
    EXPECT_TRUE(queue.drain(0, 4, &shed).empty());
    EXPECT_EQ(shed.size(), 1u);
    shed.clear();
    EXPECT_TRUE(queue.drain(0, 4, &shed).empty());
    EXPECT_TRUE(shed.empty());

    const QueueStats stats = queue.stats();
    EXPECT_EQ(stats.shedDeadline, 1u);
    EXPECT_EQ(stats.queued + stats.inflight, 0u);
    expectLedgerCoherent(stats);
}

TEST(ServeQueue, DrainBlocksUntilAJobArrives)
{
    RequestQueue queue(4, 4);
    std::thread producer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        (void)queue.tryPush(noopJob(3));
    });
    auto batch = queue.drain(3, 1); // blocks until the producer pushes
    producer.join();
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].shard, 3u);
    retire(queue, batch);
}

TEST(ServeQueue, WeightedDrainFavorsHigherClassesWithoutStarvation)
{
    // 4 interactive : 2 normal : 1 batch per round -- interactive
    // leads every round, yet batch always gets its slot.
    RequestQueue queue(1, 16);
    for (int i = 0; i < 4; ++i) {
        ASSERT_EQ(queue.tryPush(taggedJob(100 + i, Priority::Batch)),
                  RequestQueue::Admit::Accepted);
        ASSERT_EQ(queue.tryPush(taggedJob(200 + i, Priority::Normal)),
                  RequestQueue::Admit::Accepted);
        ASSERT_EQ(
            queue.tryPush(taggedJob(300 + i, Priority::Interactive)),
            RequestQueue::Admit::Accepted);
    }

    auto batch = queue.drain(0, 7); // one full weighted round
    ASSERT_EQ(batch.size(), 7u);
    // Interactive quota 4, FIFO within the class...
    EXPECT_EQ(tagOf(batch[0]), 300);
    EXPECT_EQ(tagOf(batch[1]), 301);
    EXPECT_EQ(tagOf(batch[2]), 302);
    EXPECT_EQ(tagOf(batch[3]), 303);
    // ...then normal quota 2...
    EXPECT_EQ(tagOf(batch[4]), 200);
    EXPECT_EQ(tagOf(batch[5]), 201);
    // ...then batch's guaranteed slot.
    EXPECT_EQ(tagOf(batch[6]), 100);

    retire(queue, batch);
    auto rest = queue.drain(0, 16);
    ASSERT_EQ(rest.size(), 5u);
    retire(queue, rest);
    expectLedgerCoherent(queue.stats());
}

TEST(ServeQueue, WeightedOrderHoldsOverOneJobDrains)
{
    // A lane thread pops one job at a time.  The lane keeps its round
    // position between drains, so seven one-job drains reproduce the
    // 4:2:1 round exactly, and the next round gives batch its slot
    // again instead of restarting at interactive.
    RequestQueue queue(1, 32);
    for (int i = 0; i < 8; ++i) {
        ASSERT_EQ(queue.tryPush(taggedJob(100 + i, Priority::Batch)),
                  RequestQueue::Admit::Accepted);
        ASSERT_EQ(queue.tryPush(taggedJob(200 + i, Priority::Normal)),
                  RequestQueue::Admit::Accepted);
        ASSERT_EQ(
            queue.tryPush(taggedJob(300 + i, Priority::Interactive)),
            RequestQueue::Admit::Accepted);
    }

    const int expected[14] = {300, 301, 302, 303, 200, 201, 100,
                              304, 305, 306, 307, 202, 203, 101};
    for (int want : expected) {
        auto one = queue.drain(0, 1);
        ASSERT_EQ(one.size(), 1u);
        EXPECT_EQ(tagOf(one[0]), want);
        retire(queue, one);
    }

    // Interactive is exhausted: the rest alternate 2 normal : 1 batch
    // and batch still drains.
    const int tail[10] = {204, 205, 102, 206, 207, 103, 104, 105, 106,
                          107};
    for (int want : tail) {
        auto one = queue.drain(0, 1);
        ASSERT_EQ(one.size(), 1u);
        EXPECT_EQ(tagOf(one[0]), want);
        retire(queue, one);
    }
    expectLedgerCoherent(queue.stats());
    EXPECT_EQ(queue.stats().completed, 24u);
}

TEST(ServeQueue, EvictionShedsLowestClassFirst)
{
    // At the bound, an interactive arrival claims the slot of the
    // newest queued batch job; the victim comes back via the
    // out-param so the caller can send its typed reply off-lock.
    RequestQueue queue(1, 2);
    ASSERT_EQ(queue.tryPush(taggedJob(1, Priority::Batch)),
              RequestQueue::Admit::Accepted);
    ASSERT_EQ(queue.tryPush(taggedJob(2, Priority::Batch)),
              RequestQueue::Admit::Accepted);

    QueuedJob evicted;
    ASSERT_EQ(queue.tryPush(taggedJob(9, Priority::Interactive),
                            &evicted),
              RequestQueue::Admit::Accepted);
    ASSERT_TRUE(evicted.run != nullptr);
    EXPECT_EQ(tagOf(evicted), 2); // newest batch job, not the oldest

    QueueStats stats = queue.stats();
    EXPECT_EQ(stats.shedEvicted, 1u);
    EXPECT_EQ(stats.classes[0].shedEvicted, 1u);
    EXPECT_EQ(stats.queued, 2u);
    expectLedgerCoherent(stats);

    // Only strictly lower classes are victims: batch cannot evict
    // batch, so an equal-class arrival degrades to QueueFull.
    QueuedJob none;
    EXPECT_EQ(queue.tryPush(taggedJob(3, Priority::Batch), &none),
              RequestQueue::Admit::QueueFull);
    EXPECT_EQ(queue.stats().rejectedQueueFull, 1u);

    // Once nothing below interactive is queued, interactive arrivals
    // get QueueFull too -- the protected classes never eat each other.
    QueuedJob second;
    ASSERT_EQ(queue.tryPush(taggedJob(10, Priority::Interactive),
                            &second),
              RequestQueue::Admit::Accepted);
    EXPECT_EQ(tagOf(second), 1); // the remaining batch job
    EXPECT_EQ(queue.tryPush(taggedJob(11, Priority::Interactive), &none),
              RequestQueue::Admit::QueueFull);
    EXPECT_EQ(queue.stats().rejectedQueueFull, 2u);

    retire(queue, queue.drain(0, 4));
    expectLedgerCoherent(queue.stats());
}

TEST(ServeQueue, EvictionPicksNewestLowestClassAcrossLanes)
{
    // The victim is chosen by admission order over every lane, not
    // within the arrival's own lane.
    RequestQueue queue(2, 4);
    ASSERT_EQ(queue.tryPush(taggedJob(1, Priority::Batch, 0)),
              RequestQueue::Admit::Accepted);
    ASSERT_EQ(queue.tryPush(taggedJob(2, Priority::Batch, 1)),
              RequestQueue::Admit::Accepted);
    ASSERT_EQ(queue.tryPush(taggedJob(3, Priority::Batch, 0)),
              RequestQueue::Admit::Accepted);
    ASSERT_EQ(queue.tryPush(taggedJob(4, Priority::Normal, 1)),
              RequestQueue::Admit::Accepted);

    // Arrivals on lane 1 evict batch jobs newest first, whichever
    // lane holds them, and only then the normal job.
    const int victims[4] = {3, 2, 1, 4};
    for (int i = 0; i < 4; ++i) {
        QueuedJob evicted;
        ASSERT_EQ(queue.tryPush(taggedJob(10 + i, Priority::Interactive,
                                          1),
                                &evicted),
                  RequestQueue::Admit::Accepted);
        ASSERT_TRUE(evicted.run != nullptr);
        EXPECT_EQ(tagOf(evicted), victims[i]);
    }
    QueuedJob none;
    EXPECT_EQ(queue.tryPush(taggedJob(20, Priority::Interactive, 0), &none),
              RequestQueue::Admit::QueueFull);

    const QueueStats stats = queue.stats();
    EXPECT_EQ(stats.classes[0].shedEvicted, 3u);
    EXPECT_EQ(stats.classes[1].shedEvicted, 1u);
    EXPECT_EQ(stats.queued, 4u);
    expectLedgerCoherent(stats);

    // Lane 0 was emptied by evictions; lane 1 holds the arrivals.
    std::vector<QueuedJob> laneOne = queue.drain(1, 8);
    ASSERT_EQ(laneOne.size(), 4u);
    EXPECT_EQ(tagOf(laneOne[0]), 10);
    retire(queue, laneOne);
    expectLedgerCoherent(queue.stats());
}

TEST(ServeQueue, EvictionWithoutOutParamDegradesToQueueFull)
{
    // Legacy callers that pass no out-param must never lose a job.
    RequestQueue queue(1, 1);
    ASSERT_EQ(queue.tryPush(taggedJob(0, Priority::Batch)),
              RequestQueue::Admit::Accepted);
    EXPECT_EQ(queue.tryPush(taggedJob(1, Priority::Interactive)),
              RequestQueue::Admit::QueueFull);
    EXPECT_EQ(queue.stats().shedEvicted, 0u);
    EXPECT_EQ(queue.stats().queued, 1u);
}

TEST(ServeQueue, BrownoutShedsBatchAndHalvesDepth)
{
    RequestQueue queue(1, 8); // brownout depth defaults to 4
    queue.setBrownout(true);
    EXPECT_TRUE(queue.brownout());

    // Batch is shed at admission with a resource verdict...
    EXPECT_EQ(queue.tryPush(taggedJob(0, Priority::Batch)),
              RequestQueue::Admit::Brownout);
    QueueStats stats = queue.stats();
    EXPECT_EQ(stats.rejectedResource, 1u);
    EXPECT_EQ(stats.classes[0].rejectedResource, 1u);

    // ...and the admission bound halves for everyone else.
    for (int i = 0; i < 4; ++i)
        ASSERT_EQ(queue.tryPush(taggedJob(i, Priority::Normal)),
                  RequestQueue::Admit::Accepted);
    EXPECT_EQ(queue.tryPush(taggedJob(5, Priority::Normal)),
              RequestQueue::Admit::QueueFull);

    // Recovery restores the full depth.
    queue.setBrownout(false);
    for (int i = 0; i < 4; ++i)
        ASSERT_EQ(queue.tryPush(taggedJob(i, Priority::Normal)),
                  RequestQueue::Admit::Accepted);
    EXPECT_EQ(queue.tryPush(taggedJob(9, Priority::Batch)),
              RequestQueue::Admit::QueueFull);
    retire(queue, queue.drain(0, 8));
    expectLedgerCoherent(queue.stats());
}

TEST(ServeQueue, ExplicitBrownoutDepthOverridesTheDefault)
{
    RequestQueue queue(1, 8, 2);
    queue.setBrownout(true);
    ASSERT_EQ(queue.tryPush(taggedJob(0, Priority::Normal)),
              RequestQueue::Admit::Accepted);
    ASSERT_EQ(queue.tryPush(taggedJob(1, Priority::Normal)),
              RequestQueue::Admit::Accepted);
    EXPECT_EQ(queue.tryPush(taggedJob(2, Priority::Normal)),
              RequestQueue::Admit::QueueFull);
}

TEST(ServeQueue, PerClassCompletionKeepsClassLedgersCoherent)
{
    RequestQueue queue(1, 8);
    ASSERT_EQ(queue.tryPush(taggedJob(0, Priority::Batch)),
              RequestQueue::Admit::Accepted);
    ASSERT_EQ(queue.tryPush(taggedJob(1, Priority::Interactive)),
              RequestQueue::Admit::Accepted);
    ASSERT_EQ(queue.tryPush(taggedJob(2, Priority::Interactive)),
              RequestQueue::Admit::Accepted);

    auto batch = queue.drain(0, 8);
    ASSERT_EQ(batch.size(), 3u);
    retire(queue, batch);

    const QueueStats stats = queue.stats();
    EXPECT_EQ(stats.classes[0].completed, 1u);
    EXPECT_EQ(stats.classes[2].completed, 2u);
    EXPECT_EQ(stats.completed, 3u);
    expectLedgerCoherent(stats);
}

TEST(ServeQueue, PerClassLedgerHoldsWithJobsSpreadOverLanes)
{
    RequestQueue queue(3, 32);
    const Priority classes[3] = {Priority::Batch, Priority::Normal,
                                 Priority::Interactive};
    for (int i = 0; i < 18; ++i) {
        QueuedJob job = taggedJob(i, classes[i % 3], size_t(i / 3) % 3);
        if (i % 5 == 0)
            job.deadline = std::chrono::steady_clock::now() -
                           std::chrono::milliseconds(5);
        ASSERT_EQ(queue.tryPush(std::move(job)),
                  RequestQueue::Admit::Accepted);
    }
    expectLedgerCoherent(queue.stats());

    // Partial one-job drains on every lane, retiring only some.
    std::vector<QueuedJob> held;
    for (size_t lane = 0; lane < 3; ++lane) {
        std::vector<QueuedJob> shed;
        std::vector<QueuedJob> one = queue.drain(lane, 1, &shed);
        ASSERT_EQ(one.size(), 1u);
        held.push_back(std::move(one[0]));
        expectLedgerCoherent(queue.stats());
    }
    EXPECT_EQ(queue.stats().inflight, 3u);
    retire(queue, held);

    // Drain each lane dry.
    for (size_t lane = 0; lane < 3; ++lane) {
        std::vector<QueuedJob> shed;
        retire(queue, queue.drain(lane, 32, &shed));
        expectLedgerCoherent(queue.stats());
    }
    const QueueStats stats = queue.stats();
    EXPECT_EQ(stats.queued, 0u);
    EXPECT_EQ(stats.inflight, 0u);
    EXPECT_EQ(stats.shedDeadline, 4u); // tags 0, 5, 10, 15
    EXPECT_EQ(stats.completed, 14u);
}

TEST(ServeQueue, BeginShutdownDrainsEveryLane)
{
    // One consumer per lane, as in the daemon: each pops one job at a
    // time and exits only once shutdown has emptied its lane.
    const size_t lanes = 3;
    RequestQueue queue(lanes, 64);
    std::atomic<int> ran{0};
    for (int i = 0; i < 30; ++i) {
        QueuedJob job;
        job.shard = size_t(i) % lanes;
        job.priority = static_cast<Priority>(i % 3);
        job.run = [&ran] { ran.fetch_add(1); };
        ASSERT_EQ(queue.tryPush(std::move(job)),
                  RequestQueue::Admit::Accepted);
    }

    std::vector<std::thread> consumers;
    for (size_t lane = 0; lane < lanes; ++lane)
        consumers.emplace_back([&queue, lane] {
            for (;;) {
                std::vector<QueuedJob> one = queue.drain(lane, 1);
                if (one.empty())
                    return;
                one[0].run();
                queue.markDone(one[0].priority);
            }
        });
    queue.beginShutdown();
    for (std::thread &t : consumers)
        t.join();

    EXPECT_EQ(ran.load(), 30);
    const QueueStats stats = queue.stats();
    EXPECT_EQ(stats.completed, 30u);
    EXPECT_EQ(stats.queued + stats.inflight, 0u);
    expectLedgerCoherent(stats);
}

TEST(ServeQueue, EmptyLaneDrainBlocksWhileOtherLanesFill)
{
    RequestQueue queue(2, 16);
    std::atomic<bool> returned{false};
    std::vector<QueuedJob> got;
    std::thread consumer([&] {
        got = queue.drain(0, 1);
        returned.store(true);
    });

    // Jobs filed in lane 1 must not wake or feed lane 0's consumer.
    for (int i = 0; i < 5; ++i)
        ASSERT_EQ(queue.tryPush(taggedJob(i, Priority::Normal, 1)),
                  RequestQueue::Admit::Accepted);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_FALSE(returned.load());
    EXPECT_EQ(queue.stats().queued, 5u);

    ASSERT_EQ(queue.tryPush(taggedJob(42, Priority::Normal, 0)),
              RequestQueue::Admit::Accepted);
    consumer.join();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].shard, 0u);
    EXPECT_EQ(tagOf(got[0]), 42);
    retire(queue, got);
    retire(queue, queue.drain(1, 16));
    expectLedgerCoherent(queue.stats());
}

} // namespace
