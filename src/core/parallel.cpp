#include "core/parallel.hpp"

#include <charconv>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace hostnet::core {

unsigned parse_thread_count(std::string_view text) {
  // from_chars takes no sign, no blanks and stops at the first non-digit;
  // the end check rejects any tail, and 0 doubles as the error value.
  unsigned v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  return ec == std::errc{} && ptr == end ? v : 0;
}

unsigned parallel_threads() {
  if (const char* e = std::getenv("HOSTNET_THREADS")) {
    const unsigned v = parse_thread_count(e);
    if (v == 0)
      throw std::invalid_argument(std::string("HOSTNET_THREADS='") + e +
                                  "' is not a positive integer");
    return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

namespace {

/// Set while a thread is executing a pool job: a nested run_parallel from
/// inside a job runs serially inline instead of deadlocking on the pool.
thread_local bool tl_in_pool_job = false;

/// Persistent worker pool. Threads are spawned on first use, grow to the
/// largest worker count ever requested, and live until process exit --
/// per-batch construction cost (thread spawn, stack faults) is paid once.
/// One batch runs at a time; the
/// caller participates in its own batch, and a batch admits at most the
/// requested number of pool workers, so HOSTNET_THREADS semantics are
/// unchanged from the spawn-per-call engine.
class WorkerPool {
 public:
  static WorkerPool& instance() {
    static WorkerPool pool;
    return pool;
  }

  void run(std::size_t count, const std::function<void(std::size_t)>& body,
           unsigned nthreads) {
    // Serialize concurrent top-level run_parallel calls (rare; the pool has
    // a single batch slot).
    const std::lock_guard<std::mutex> batch_lock(batch_mu_);
    std::unique_lock<std::mutex> lk(mu_);
    ensure_threads(nthreads - 1);
    body_ = &body;
    count_ = count;
    next_ = 0;
    in_flight_ = 0;
    abort_ = false;
    err_ = nullptr;
    slots_ = nthreads - 1;  // pool workers admitted; the caller is the nth
    ++generation_;
    work_cv_.notify_all();
    drain(lk);
    done_cv_.wait(lk, [&] { return (abort_ || next_ >= count_) && in_flight_ == 0; });
    body_ = nullptr;
    slots_ = 0;
    if (err_) {
      std::exception_ptr e = err_;
      err_ = nullptr;
      std::rethrow_exception(e);
    }
  }

  ~WorkerPool() {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

 private:
  WorkerPool() = default;

  void ensure_threads(unsigned n) {
    while (threads_.size() < n)
      threads_.emplace_back([this] { worker_loop(); });
  }

  /// Claim-and-run loop shared by the caller and the pool workers. Enter
  /// and leave with the lock held. A worker that wakes late -- after the
  /// batch completed -- no-ops on the loop guard.
  void drain(std::unique_lock<std::mutex>& lk) {
    while (!abort_ && next_ < count_) {
      const std::size_t i = next_++;
      ++in_flight_;
      const std::function<void(std::size_t)>* body = body_;
      lk.unlock();
      const bool was_in_job = tl_in_pool_job;
      tl_in_pool_job = true;
      std::exception_ptr e;
      try {
        (*body)(i);
      } catch (...) {
        e = std::current_exception();
      }
      tl_in_pool_job = was_in_job;
      lk.lock();
      --in_flight_;
      if (e) {
        if (!err_) err_ = e;
        abort_ = true;
      }
      if (in_flight_ == 0 && (abort_ || next_ >= count_)) done_cv_.notify_all();
    }
  }

  void worker_loop() {
    std::unique_lock<std::mutex> lk(mu_);
    std::uint64_t seen = 0;
    for (;;) {
      work_cv_.wait(lk, [&] {
        return shutdown_ || (generation_ != seen && slots_ > 0 && body_ != nullptr);
      });
      if (shutdown_) return;
      seen = generation_;
      --slots_;
      drain(lk);
    }
  }

  std::mutex batch_mu_;  ///< one batch at a time
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;

  // Batch state (guarded by mu_).
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t count_ = 0;
  std::size_t next_ = 0;
  unsigned in_flight_ = 0;
  unsigned slots_ = 0;
  std::uint64_t generation_ = 0;
  bool abort_ = false;
  bool shutdown_ = false;
  std::exception_ptr err_;
};

}  // namespace

void run_parallel(std::size_t count, const std::function<void(std::size_t)>& body,
                  unsigned nthreads) {
  if (count == 0) return;
  if (nthreads == 0) nthreads = parallel_threads();
  if (nthreads > count) nthreads = static_cast<unsigned>(count);
  if (nthreads <= 1 || tl_in_pool_job) {
    // Serial, or nested inside a pool job (run inline; the pool's threads
    // are busy with the outer batch).
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  WorkerPool::instance().run(count, body, nthreads);
}

}  // namespace hostnet::core
