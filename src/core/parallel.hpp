// Worker-pool parallel-for for sweep workloads.
//
// Every paper figure is a plan of independent measurement windows; each
// window owns its HostSystem (and therefore its Simulator, RNG streams, and
// counters), so windows can run on separate threads with no shared mutable
// state and bit-identical results to a serial run. This header provides the
// minimal engine core::execute runs on: N independent jobs on a PERSISTENT
// pool -- worker threads are spawned on first use and reused across
// batches, so many small batches pay thread spawn/teardown once.
//
// Thread-count policy: the HOSTNET_THREADS environment variable overrides
// (a positive integer; anything else is an error, never a silent default);
// otherwise std::thread::hardware_concurrency() is used. A batch admits at
// most the requested worker count regardless of pool size, and the calling
// thread always participates, so the policy is identical to the old
// spawn-per-call engine. A nested run_parallel from inside a pool job runs
// serially inline.
#pragma once

#include <cstddef>
#include <functional>
#include <string_view>

namespace hostnet::core {

/// A worker-thread count: `text` as a positive decimal integer that fits in
/// `unsigned`, or 0 when it is anything else (empty, signed, "2x", "0").
unsigned parse_thread_count(std::string_view text);

/// Worker threads to use for parallel sweeps: the HOSTNET_THREADS
/// environment variable if set, else hardware_concurrency(). Throws
/// std::invalid_argument naming the variable when it is set but is not a
/// positive integer (parse_thread_count).
unsigned parallel_threads();

/// Run `body(0) .. body(count-1)` across `nthreads` workers (0 = use
/// parallel_threads()). Jobs are claimed from a shared atomic counter; the
/// call returns after every claimed job has finished. The calling thread
/// participates as a worker. If a job throws, remaining unclaimed jobs are
/// abandoned, all workers are joined, and the first exception is rethrown --
/// the pool never deadlocks on a throwing job.
void run_parallel(std::size_t count, const std::function<void(std::size_t)>& body,
                  unsigned nthreads = 0);

}  // namespace hostnet::core
