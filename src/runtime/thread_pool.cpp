#include "thread_pool.hpp"

#include <algorithm>
#include <atomic>

#if __has_include(<pthread.h>)
#include <pthread.h>
#define FINCH_HAVE_ATFORK 1
#endif

namespace finch::rt {

ThreadPool& ThreadPool::shared() {
  static ThreadPool* pool = [] {
    auto* p = new ThreadPool(std::max(2u, std::thread::hardware_concurrency()) - 1);
#ifdef FINCH_HAVE_ATFORK
    // Only the forking thread survives a fork(), so a pool forked with live
    // workers would leave the child a pool of ghosts (and ThreadSanitizer
    // refuses to start threads after a multi-threaded fork). Quiesce first.
    pthread_atfork([] { shared().stop_workers(); }, [] { shared().start_workers(); }, nullptr);
#endif
    return p;
  }();
  return *pool;
}

ThreadPool::ThreadPool(unsigned num_threads) : num_threads_(std::max(1u, num_threads)) {
  start_workers();
}

ThreadPool::~ThreadPool() { stop_workers(); }

void ThreadPool::start_workers() {
  workers_.reserve(num_threads_);
  for (unsigned i = 0; i < num_threads_; ++i) workers_.emplace_back([this] { worker_loop(); });
}

// Joins every worker. A job in flight still completes: its caller runs the
// chunks no worker claimed.
void ThreadPool::stop_workers() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
  std::lock_guard<std::mutex> lk(mutex_);
  stopping_ = false;
}

void ThreadPool::parallel_for(int64_t begin, int64_t end, const std::function<void(int64_t)>& fn,
                              int64_t grain) {
  parallel_for_chunks(
      begin, end,
      [&fn](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) fn(i);
      },
      grain);
}

bool ThreadPool::try_parallel_for_chunks(int64_t begin, int64_t end,
                                         const std::function<void(int64_t, int64_t)>& fn,
                                         int64_t grain) {
  if (busy_.exchange(true, std::memory_order_acquire)) return false;
  struct Release {
    std::atomic<bool>& flag;
    ~Release() { flag.store(false, std::memory_order_release); }
  } release{busy_};
  parallel_for_chunks(begin, end, fn, grain);
  return true;
}

void ThreadPool::parallel_for_chunks(int64_t begin, int64_t end,
                                     const std::function<void(int64_t, int64_t)>& fn, int64_t grain) {
  if (begin >= end) return;
  if (grain < 1) grain = 1;
  std::atomic<int64_t> cursor{begin};
  const int64_t nchunks = (end - begin + grain - 1) / grain;
  std::atomic<int64_t> remaining{nchunks};
  Job job;
  job.body = &fn;
  job.begin = begin;
  job.end = end;
  job.grain = grain;
  job.cursor = &cursor;
  job.remaining = &remaining;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    job_ = job;
    ++job_epoch_;
  }
  cv_work_.notify_all();
  run_chunks(job);  // the calling thread participates
  std::unique_lock<std::mutex> lk(mutex_);
  // Wait for completed chunks AND for every worker that copied job_ to leave
  // run_chunks: job points into this stack frame, so returning while a slow
  // worker still holds a copy would hand it dangling cursor/body pointers.
  cv_done_.wait(lk, [&] {
    return remaining.load(std::memory_order_acquire) == 0 && inflight_ == 0;
  });
  job_ = Job{};  // clear so late-waking workers see no work
}

void ThreadPool::run_chunks(const Job& job) {
  while (true) {
    int64_t b = job.cursor->fetch_add(job.grain, std::memory_order_relaxed);
    if (b >= job.end) break;
    int64_t e = std::min(b + job.grain, job.end);
    (*job.body)(b, e);
    if (job.remaining->fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lk(mutex_);
      cv_done_.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  uint64_t seen_epoch = 0;
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      cv_work_.wait(lk, [&] { return stopping_ || (job_epoch_ != seen_epoch && job_.body != nullptr); });
      if (stopping_) return;
      seen_epoch = job_epoch_;
      job = job_;
      ++inflight_;
    }
    run_chunks(job);
    {
      std::lock_guard<std::mutex> lk(mutex_);
      --inflight_;
    }
    cv_done_.notify_all();
  }
}

}  // namespace finch::rt
