#pragma once
// Work-sharing thread pool with a blocking parallel_for, used by the CPU
// multithreaded code-generation target and, through ThreadPool::shared(), by
// the distributed solvers' concurrent ranks. Kernels executed through the pool
// are bit-identical to serial execution (each index is processed exactly
// once); only the interleaving differs.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace finch::rt {

class ThreadPool {
 public:
  explicit ThreadPool(unsigned num_threads = std::thread::hardware_concurrency());
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // The process-wide pool: hardware_concurrency() - 1 workers, the calling
  // thread being the last lane. Created on first use and never destroyed.
  // Its workers are joined just before a fork() and restarted in the parent
  // after it, so the process forks single-threaded and the child runs every
  // job on its calling thread.
  static ThreadPool& shared();

  // Worker threads configured (a job runs on them plus its caller).
  unsigned size() const { return num_threads_; }

  // Blocks until fn has been applied to every i in [begin, end).
  // Indices are handed out in contiguous grain-sized chunks.
  void parallel_for(int64_t begin, int64_t end, const std::function<void(int64_t)>& fn,
                    int64_t grain = 256);

  // Chunked variant: fn receives [chunk_begin, chunk_end) ranges.
  void parallel_for_chunks(int64_t begin, int64_t end,
                           const std::function<void(int64_t, int64_t)>& fn, int64_t grain = 256);

  // parallel_for_chunks when the pool is free. Returns false, having run
  // nothing, when another caller holds it (or the caller is itself inside a
  // pool job); the caller then runs the range on its own thread.
  bool try_parallel_for_chunks(int64_t begin, int64_t end,
                               const std::function<void(int64_t, int64_t)>& fn,
                               int64_t grain = 1);

 private:
  struct Job {
    const std::function<void(int64_t, int64_t)>* body = nullptr;
    int64_t begin = 0, end = 0, grain = 1;
    std::atomic<int64_t>* cursor = nullptr;
    std::atomic<int64_t>* remaining = nullptr;
  };

  void worker_loop();
  void run_chunks(const Job& job);
  void start_workers();
  void stop_workers();

  unsigned num_threads_;
  std::vector<std::thread> workers_;
  std::atomic<bool> busy_{false};  // a try_parallel_for_chunks caller owns the pool
  std::mutex mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  Job job_;
  uint64_t job_epoch_ = 0;
  // Workers holding a copy of job_ (registered under mutex_ at copy time).
  // parallel_for_chunks must not return while this is non-zero: the copied
  // Job points into the caller's stack frame, and a worker that copied it
  // but has not yet claimed a chunk would otherwise dereference a dead frame.
  int inflight_ = 0;
  bool stopping_ = false;
};

}  // namespace finch::rt
