#include "rl/util/thread_pool.h"

namespace racelogic::util {

size_t
ThreadPool::defaultThreadCount()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<size_t>(hw);
}

ThreadPool::ThreadPool(size_t threads)
{
    if (threads == 0)
        threads = defaultThreadCount();
    workerCount = threads;
    workers.reserve(threads);
    for (size_t i = 0; i < threads; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        shutdown = true;
    }
    wakeWorkers.notify_all();
    for (std::thread &worker : workers)
        worker.join();
}

void
ThreadPool::workerLoop()
{
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
        ++parked;
        if (parked == workerCount)
            allParked.notify_one();
        wakeWorkers.wait(lock,
                         [&] { return shutdown || generation != seen; });
        --parked;
        if (shutdown)
            return;
        seen = generation;
        const std::function<void(size_t)> *fn = body;
        const size_t total = count;

        lock.unlock();
        size_t done = 0;
        std::exception_ptr firstHere;
        for (;;) {
            size_t i = nextIndex.fetch_add(1, std::memory_order_relaxed);
            if (i >= total)
                break;
            try {
                (*fn)(i);
            } catch (...) {
                // Record and keep claiming: the batch's completion
                // accounting must reach `count` even on failure, and
                // sibling indices may legitimately succeed.
                if (!firstHere)
                    firstHere = std::current_exception();
            }
            ++done;
        }
        lock.lock();

        if (firstHere && !batchException)
            batchException = firstHere;
        completed += done;
        if (completed == count)
            batchDone.notify_one();
    }
}

void
ThreadPool::parallelFor(size_t n,
                        const std::function<void(size_t)> &loopBody)
{
    if (n == 0)
        return;
    if (workerCount == 0) {
        for (size_t i = 0; i < n; ++i)
            loopBody(i);
        return;
    }

    std::unique_lock<std::mutex> lock(mutex);
    // Publish the batch only once every worker is back in wait():
    // a straggler from the previous batch could otherwise claim the
    // reset index counter against its stale body pointer.
    allParked.wait(lock, [&] { return parked == workerCount; });
    body = &loopBody;
    count = n;
    completed = 0;
    batchException = nullptr;
    nextIndex.store(0, std::memory_order_relaxed);
    ++generation;
    wakeWorkers.notify_all();

    batchDone.wait(lock, [&] { return completed == count; });
    body = nullptr;
    if (batchException) {
        std::exception_ptr rethrow = batchException;
        batchException = nullptr;
        lock.unlock();
        std::rethrow_exception(rethrow);
    }
}

} // namespace racelogic::util
