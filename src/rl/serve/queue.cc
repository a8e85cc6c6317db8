#include "rl/serve/queue.h"

#include <algorithm>

#include "rl/util/logging.h"

namespace racelogic::serve {

namespace {

/**
 * Round-robin drain quota per class, indexed by Priority.  Every
 * non-empty class gets at least one slot per round, so batch can be
 * delayed by interactive bursts but never starved.
 */
constexpr size_t kDrainWeight[kPriorityClasses] = {1, 2, 4};

size_t
classIndex(Priority priority)
{
    return static_cast<size_t>(priority);
}

} // namespace

QueueStatsWire
QueueStats::wire() const
{
    QueueStatsWire w;
    w.enqueued = enqueued;
    w.completed = completed;
    w.rejectedQueueFull = rejectedQueueFull;
    w.rejectedOversized = rejectedOversized;
    w.rejectedBadRequest = rejectedBadRequest;
    w.rejectedResource = rejectedResource;
    w.rejectedShutdown = rejectedShutdown;
    w.shedDeadline = shedDeadline;
    w.shedEvicted = shedEvicted;
    w.inflight = inflight;
    w.queued = queued;
    w.highWater = highWater;
    for (size_t c = 0; c < kPriorityClasses; ++c) {
        const ClassStats &s = classes[c];
        ClassStatsWire &cw = w.classes[c];
        cw.enqueued = s.enqueued;
        cw.completed = s.completed;
        cw.rejectedQueueFull = s.rejectedQueueFull;
        cw.rejectedResource = s.rejectedResource;
        cw.shedDeadline = s.shedDeadline;
        cw.shedEvicted = s.shedEvicted;
        cw.queued = s.queued;
    }
    return w;
}

RequestQueue::RequestQueue(size_t lanes, size_t depth, size_t brownoutDepth)
    : capacity(depth),
      brownoutCapacity(brownoutDepth == 0
                           ? std::max<size_t>(1, depth / 2)
                           : std::min(depth,
                                      std::max<size_t>(1, brownoutDepth)))
{
    rl_assert(lanes > 0, "a queue needs at least one lane");
    rl_assert(depth > 0, "a zero-depth queue admits nothing");
    this->lanes.reserve(lanes);
    for (size_t i = 0; i < lanes; ++i)
        this->lanes.push_back(std::make_unique<Lane>());
}

size_t
RequestQueue::effectiveDepth() const
{
    return brownoutActive ? brownoutCapacity : capacity;
}

RequestQueue::Admit
RequestQueue::tryPush(QueuedJob job, QueuedJob *evicted)
{
    rl_assert(job.shard < lanes.size(), "job routed to a missing lane");
    Lane &lane = *lanes[job.shard];
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (shuttingDown) {
            ++counters.rejectedShutdown;
            return Admit::ShuttingDown;
        }
        const size_t cls = classIndex(job.priority);
        if (brownoutActive && job.priority == Priority::Batch) {
            ++counters.rejectedResource;
            ++counters.classes[cls].rejectedResource;
            return Admit::Brownout;
        }
        const uint64_t outstanding = counters.queued + counters.inflight;
        if (outstanding >= effectiveDepth()) {
            // Shed-lowest-first: a higher class may claim the slot of
            // the newest queued job, in any lane, of the lowest
            // occupied class below it.  The victim still gets a typed
            // QueueFull reply -- the caller runs evicted->onShed off
            // this lock.
            bool tookSlot = false;
            for (size_t victim = 0; evicted != nullptr && victim < cls;
                 ++victim) {
                std::deque<Entry> *newest = nullptr;
                for (const std::unique_ptr<Lane> &other : lanes) {
                    std::deque<Entry> &q = other->jobs[victim];
                    if (!q.empty() &&
                        (!newest || q.back().seq > newest->back().seq))
                        newest = &q;
                }
                if (!newest)
                    continue;
                *evicted = std::move(newest->back().job);
                newest->pop_back();
                --counters.queued;
                --counters.classes[victim].queued;
                ++counters.shedEvicted;
                ++counters.classes[victim].shedEvicted;
                tookSlot = true;
                break;
            }
            if (!tookSlot) {
                ++counters.rejectedQueueFull;
                ++counters.classes[cls].rejectedQueueFull;
                return Admit::QueueFull;
            }
        }
        lane.jobs[cls].push_back(Entry{admissions++, std::move(job)});
        ++counters.enqueued;
        ++counters.queued;
        ++counters.classes[cls].enqueued;
        ++counters.classes[cls].queued;
        counters.highWater = std::max(counters.highWater,
                                      counters.queued + counters.inflight);
    }
    // Only this lane's consumer can run the job; waking it after the
    // unlock spares it an immediate block on the mutex.
    lane.readable.notify_one();
    return Admit::Accepted;
}

void
RequestQueue::noteRejected(Status status, Priority priority)
{
    std::lock_guard<std::mutex> lock(mutex);
    switch (status) {
    case Status::Oversized: ++counters.rejectedOversized; break;
    case Status::BadRequest: ++counters.rejectedBadRequest; break;
    case Status::ResourceExhausted:
        ++counters.rejectedResource;
        ++counters.classes[classIndex(priority)].rejectedResource;
        break;
    case Status::QueueFull:
        ++counters.rejectedQueueFull;
        ++counters.classes[classIndex(priority)].rejectedQueueFull;
        break;
    case Status::ShuttingDown: ++counters.rejectedShutdown; break;
    case Status::DeadlineExceeded:
        // Shedding is accounted at drain time (shedDeadline), and a
        // deadline that expires mid-race still completes its job.
        rl_panic("DeadlineExceeded is not an admission verdict");
    case Status::Ok:
        rl_panic("noteRejected(Ok) makes no sense");
    }
}

std::vector<QueuedJob>
RequestQueue::drain(size_t laneIndex, size_t max,
                    std::vector<QueuedJob> *shed)
{
    rl_assert(max > 0, "drain batch must hold at least one job");
    rl_assert(laneIndex < lanes.size(), "drain of a missing lane");
    Lane &lane = *lanes[laneIndex];
    std::unique_lock<std::mutex> lock(mutex);
    lane.readable.wait(lock,
                       [&] { return !lane.empty() || shuttingDown; });

    // Shed-at-drain, not shed-at-push: expiry is checked exactly once
    // per job, by its lane's one consumer, so a shed job can never
    // race its own execution.
    const auto now = std::chrono::steady_clock::now();

    std::vector<QueuedJob> batch;
    while (batch.size() < max && !lane.empty()) {
        // Weighted round-robin, highest class first: the lane spends
        // its current class's quota, then moves down one class
        // (wrapping to the top); an empty class forfeits its turn.
        // Deadline sheds consume no quota; within a class jobs leave
        // in FIFO order.
        while (lane.quota == 0 || lane.jobs[lane.turn].empty()) {
            lane.turn = lane.turn == 0 ? kPriorityClasses - 1
                                       : lane.turn - 1;
            lane.quota = kDrainWeight[lane.turn];
        }
        const size_t c = lane.turn;
        QueuedJob job = std::move(lane.jobs[c].front().job);
        lane.jobs[c].pop_front();
        --counters.queued;
        --counters.classes[c].queued;
        if (shed != nullptr && job.deadline <= now) {
            shed->push_back(std::move(job));
            ++counters.shedDeadline;
            ++counters.classes[c].shedDeadline;
            continue;
        }
        batch.push_back(std::move(job));
        ++counters.inflight;
        --lane.quota;
    }
    return batch;
}

void
RequestQueue::markDone(Priority priority)
{
    std::lock_guard<std::mutex> lock(mutex);
    rl_assert(counters.inflight > 0,
              "markDone() retires more jobs than are inflight");
    --counters.inflight;
    ++counters.completed;
    ++counters.classes[classIndex(priority)].completed;
}

void
RequestQueue::setBrownout(bool active)
{
    std::lock_guard<std::mutex> lock(mutex);
    brownoutActive = active;
}

bool
RequestQueue::brownout() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return brownoutActive;
}

void
RequestQueue::beginShutdown()
{
    std::lock_guard<std::mutex> lock(mutex);
    shuttingDown = true;
    for (const std::unique_ptr<Lane> &lane : lanes)
        lane->readable.notify_all();
}

QueueStats
RequestQueue::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return counters;
}

} // namespace racelogic::serve
