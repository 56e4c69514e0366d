// `servebench serve DIR`: the end-to-end run, tracing off.
//
// This process starts no thread; every measurement runs in a child forked
// from it. First kSetUps children each time one set-up (setup_s is the
// median), so each starts as a newly started serving process would. Then
// one serving child sets the service up (untimed) and runs the open-loop
// schedule: one sender thread submits the reads at their scheduled times,
// one collector thread resolves them in order, and (durable_mixed) one
// writer thread applies the deltas at theirs. Every latency runs from the
// scheduled time, so a stalled sender or dispatcher charges the requests
// queued behind it. The schedule runs in blocks, each followed by one
// closed-loop round with a fixed in-flight window. Each block and round
// also records the process's CPU time, and a fixed calibration load runs
// before the first block and after each round: the gated serving figures
// are CPU time per operation, which leaves out the host's CPU steal,
// scaled by the calibration to one host speed, and so is setup_s. The
// wall times, which on a shared host move with its load, are reported
// beside them. Answers are only fingerprinted here; `servebench check`
// compares them with the oracle.

#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iomanip>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>

#include "exec/query_service.h"
#include "helpers.h"
#include "inputs.h"
#include "policy/policy_parser.h"
#include "policy/role_catalog.h"
#include "report.h"
#include "view/view_parser.h"
#include "xml/parser.h"

namespace servebench {
namespace {

namespace exec = smoqe::exec;
namespace policy = smoqe::policy;
using Clock = std::chrono::steady_clock;

constexpr int kSetUps = 11;  // setup_s is their median
// The open-loop schedule's blocks; a closed-loop round follows each, and
// the CPU figures are medians over them.
constexpr int kBlocks = 9;
constexpr size_t kClosedWindow = 16;  // requests in flight in a round
// The calibration load's CPU time on the reference VM when its host was
// quiet: the gated CPU figures are scaled to the host speed it stands for.
constexpr double kCalibrationMs = 25;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Everything a running service borrows; the service is declared last so it
// is destroyed (and drained) first.
struct Served {
  std::unique_ptr<xml::Tree> tree;
  std::unique_ptr<smoqe::view::ViewDef> view;
  std::unique_ptr<policy::Policy> policy;
  std::unique_ptr<policy::RoleCatalog> catalog;
  std::unique_ptr<exec::QueryService> service;
};

std::future<exec::QueryService::Answer> Submit(exec::QueryService& service,
                                               const Inputs& in,
                                               const ReadOp& op) {
  exec::SubmitOptions options;
  options.role = op.role;
  return service.Submit(in.queries[op.query], options);
}

// From workload start until ready to serve: parse the document text, build
// the service, parse the view or policy (or recover the durable store),
// and run the warm-up reads. Any failure here aborts the run.
std::unique_ptr<Served> SetUp(const Inputs& in, const std::string& store) {
  auto s = std::make_unique<Served>();
  exec::QueryServiceOptions options;
  if (in.workload.roles > 0) {
    s->tree = std::make_unique<xml::Tree>(
        OrDie(xml::ParseXml(in.doc_xml), "parse document"));
    s->policy = std::make_unique<policy::Policy>(
        OrDie(policy::ParsePolicy(in.spec), "parse policy"));
    s->catalog = std::make_unique<policy::RoleCatalog>(*s->policy, *s->tree,
                                                       nullptr);
    options.catalog = s->catalog.get();
    s->service = std::make_unique<exec::QueryService>(*s->tree, options);
  } else {
    s->view = std::make_unique<smoqe::view::ViewDef>(
        OrDie(smoqe::view::ParseView(in.spec), "parse view"));
    options.view = s->view.get();
    if (in.workload.write_rate > 0) {
      options.storage_dir = store;
      options.snapshot_every = in.workload.snapshot_every;
      s->service = OrDie(exec::QueryService::Open(xml::Tree{}, options),
                         "open durable service");
    } else {
      s->tree = std::make_unique<xml::Tree>(
          OrDie(xml::ParseXml(in.doc_xml), "parse document"));
      s->service = std::make_unique<exec::QueryService>(*s->tree, options);
    }
  }
  // Warm-up: the whole warm-up set at once, then (single-tenant) each
  // query alone, so every query compiles and the singleton path is warm.
  std::vector<std::future<exec::QueryService::Answer>> pending;
  for (const ReadOp& op : in.reads) {
    if (op.phase == 'w') pending.push_back(Submit(*s->service, in, op));
  }
  for (auto& f : pending) OrDie(f.get(), "warm-up read");
  if (in.workload.roles == 0) {
    for (const ReadOp& op : in.reads) {
      if (op.phase == 'w') OrDie(Submit(*s->service, in, op).get(), "warm-up");
    }
  }
  return s;
}

// Runs `body` in a forked child and waits for it to exit; `body` reports
// through files. Must be called while this process has no other thread: the
// child gets only the calling thread.
void InChild(const char* what, const std::function<void()>& body) {
  std::fflush(nullptr);  // or the child would repeat buffered output
  const pid_t pid = fork();
  if (pid < 0) Fail(std::string("fork for ") + what);
  if (pid == 0) {
    body();
    std::fflush(nullptr);
    _exit(0);  // threads the body left running end with the process
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    Fail(std::string(what) + " failed in a child process");
  }
}

// /proc/stat aggregate cpu line: (steal, total) jiffies.
std::pair<int64_t, int64_t> CpuSteal() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  int64_t v[8] = {0};
  stat >> cpu >> v[0] >> v[1] >> v[2] >> v[3] >> v[4] >> v[5] >> v[6] >> v[7];
  int64_t total = 0;
  for (int64_t x : v) total += x;
  return {v[7], total};
}

// Share of CPU time stolen by the host between two CpuSteal() readings.
double StealShare(std::pair<int64_t, int64_t> from,
                  std::pair<int64_t, int64_t> to) {
  const int64_t total = to.second - from.second;
  return total > 0 ? static_cast<double>(to.first - from.first) /
                         static_cast<double>(total)
                   : 0.0;
}

struct ReadRecord {
  size_t index = 0;  // into Inputs::reads
  double latency_ms = 0;
  uint64_t v0 = 0, v1 = 0;
  int code = 0;
  Fingerprint fp;
};

ReadRecord Resolve(exec::QueryService& service, size_t index,
                   std::future<exec::QueryService::Answer>& f,
                   Clock::time_point due, uint64_t v0) {
  auto answer = f.get();
  const auto done = Clock::now();
  ReadRecord r;
  r.index = index;
  r.latency_ms = MsBetween(due, done);
  r.v0 = v0;
  r.v1 = service.document_version();
  r.code = static_cast<int>(answer.status().code());
  if (answer.ok()) r.fp = FingerprintOf(answer.value());
  return r;
}

// Process CPU time (all threads, user + system) in milliseconds. The guest
// kernel leaves CPU steal out of it.
double CpuMs() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return (u.ru_utime.tv_sec + u.ru_stime.tv_sec) * 1e3 +
         (u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e3;
}

// A fixed calibration load of the benchmark's own, run between the blocks
// to tell how fast the host runs code at that moment. On the reference VM
// the same work took over twice the CPU time from one half hour to the
// next with little CPU steal: other guests share the cores' caches, the
// 300 MB L3 and the memory bus. On each hardware thread at once, the load
// reads an 8 MB table once (so the chase starts from the same cache state
// whatever the program left behind), then chases a random cycle through
// it with some integer mixing per step. Returns the chase's CPU
// milliseconds, summed over the threads. The table adds 8 MB to the
// serving process's resident set.
class Calibration {
 public:
  Calibration() : next_(1u << 21) {
    std::mt19937_64 rng(12345);
    std::vector<uint32_t> order(next_.size());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    for (size_t i = 0; i < order.size(); ++i) {
      next_[order[i]] = order[(i + 1) % order.size()];
    }
  }

  double RunMs() const {
    constexpr int kThreads = 4;
    std::vector<double> ms(kThreads);
    std::vector<uint64_t> sink(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        uint64_t h = t;
        for (size_t i = 0; i < next_.size(); i += 16) h += next_[i];
        const double cpu0 = ThreadCpuMs();
        uint32_t p = next_[t];
        for (int i = 0; i < 200000; ++i) {
          p = next_[p];
          for (int k = 0; k < 8; ++k) {
            h = (h ^ (h >> 29) ^ p) * 0xbf58476d1ce4e5b9ull;
          }
        }
        ms[t] = ThreadCpuMs() - cpu0;
        sink[t] = h;
      });
    }
    for (std::thread& t : threads) t.join();
    double total = 0;
    for (int t = 0; t < kThreads; ++t) total += ms[t];
    // Keeps the chase from being optimized away.
    if (sink[0] == 42 && sink[1] == 42) total += 1e-9;
    return total;
  }

 private:
  static double ThreadCpuMs() {
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
  }
  std::vector<uint32_t> next_;
};

// What the serving process measured, passed to its parent as text.
struct Measured {
  std::vector<ReadRecord> open;  // in schedule order
  std::vector<ReadRecord> closed;
  // Per block: open-loop operations, the block's process CPU time and CPU
  // steal share, then the closed round's wall and process CPU time.
  std::vector<int64_t> block_ops;
  std::vector<double> block_cpu_ms, block_steal, round_ms, round_cpu_ms;
  std::vector<double> calibration_ms;  // before block 0 and after each round
  std::vector<double> send_late_ms;
  std::vector<int> write_codes;
  std::vector<double> write_ms, write_late_ms;
  exec::QueryServiceStats stats;  // counters after warm-up, to the end
  uint64_t final_version = 0;
};

std::string Serialize(const Measured& g) {
  std::ostringstream out;
  out << std::setprecision(17);
  for (const auto* reads : {&g.open, &g.closed}) {
    for (const ReadRecord& r : *reads) {
      out << (reads == &g.open ? 'o' : 'c') << ' ' << r.index << ' '
          << r.latency_ms << ' ' << r.v0 << ' ' << r.v1 << ' ' << r.code
          << ' ' << r.fp.size << ' ' << r.fp.hash << '\n';
    }
  }
  for (size_t b = 0; b < g.block_ops.size(); ++b) {
    out << "b " << g.block_ops[b] << ' ' << g.block_cpu_ms[b] << ' '
        << g.block_steal[b] << ' ' << g.round_ms[b] << ' '
        << g.round_cpu_ms[b] << '\n';
  }
  for (double ms : g.calibration_ms) out << "r " << ms << '\n';
  for (double ms : g.send_late_ms) out << "s " << ms << '\n';
  for (size_t j = 0; j < g.write_codes.size(); ++j) {
    out << "w " << g.write_codes[j] << ' ' << g.write_ms[j] << ' '
        << g.write_late_ms[j] << '\n';
  }
  const exec::QueryServiceStats& st = g.stats;
  out << "k " << st.queries_answered << ' ' << st.batches << ' '
      << st.batches_aged << ' ' << st.coalesced_duplicates << ' '
      << st.evaluator_reuses << ' ' << st.role_groups << ' '
      << st.writes_applied << ' ' << g.final_version << '\n';
  return out.str();
}

Measured Deserialize(const std::string& text) {
  Measured g;
  std::istringstream in(text);
  for (char tag; in >> tag;) {
    if (tag == 'o' || tag == 'c') {
      ReadRecord r;
      in >> r.index >> r.latency_ms >> r.v0 >> r.v1 >> r.code >> r.fp.size >>
          r.fp.hash;
      (tag == 'o' ? g.open : g.closed).push_back(r);
    } else if (tag == 'b') {
      in >> g.block_ops.emplace_back() >> g.block_cpu_ms.emplace_back() >>
          g.block_steal.emplace_back() >> g.round_ms.emplace_back() >>
          g.round_cpu_ms.emplace_back();
    } else if (tag == 'r') {
      in >> g.calibration_ms.emplace_back();
    } else if (tag == 's') {
      in >> g.send_late_ms.emplace_back();
    } else if (tag == 'w') {
      in >> g.write_codes.emplace_back() >> g.write_ms.emplace_back() >>
          g.write_late_ms.emplace_back();
    } else if (tag == 'k') {
      exec::QueryServiceStats& st = g.stats;
      in >> st.queries_answered >> st.batches >> st.batches_aged >>
          st.coalesced_duplicates >> st.evaluator_reuses >> st.role_groups >>
          st.writes_applied >> g.final_version;
    } else {
      Fail("serve: bad serving record");
    }
    if (!in) Fail("serve: truncated serving record");
  }
  return g;
}

// The serving process: the open-loop schedule in kBlocks blocks, a
// closed-loop round after each. After each block the sender waits until
// the block's reads have resolved and the writer has finished the block's
// writes, then sends the round: a fixed request count with a fixed
// in-flight window. The next block's schedule starts after the round, so
// no open-loop read waits behind it.
Measured RunServing(const Inputs& in, const std::string& store,
                    std::vector<xml::TreeDelta>& deltas) {
  std::unique_ptr<Served> served = SetUp(in, store);
  exec::QueryService& service = *served->service;
  const exec::QueryServiceStats warm_stats = service.stats();

  struct InFlight {
    size_t index;
    Clock::time_point due;
    uint64_t v0;
    std::future<exec::QueryService::Answer> future;
  };
  const double block_us = in.seconds * 1e6 / kBlocks;
  auto block_of = [&](int64_t due_us) {
    return std::min(kBlocks - 1, static_cast<int>(due_us / block_us));
  };
  const size_t writes = std::min(deltas.size(), in.write_due_us.size());
  Measured g;
  std::mutex mu;
  std::condition_variable cv;  // every state change below notifies it
  std::deque<InFlight> queue;
  size_t submitted = 0, resolved = 0;
  bool sender_done = false;
  int open_block = -1;   // the block whose schedule is running
  int writer_block = 0;  // blocks whose writes are all applied
  Clock::time_point zero;  // schedule offset 0 of the running block

  std::thread collector([&] {
    for (;;) {
      InFlight f;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return sender_done || !queue.empty(); });
        if (queue.empty()) return;
        f = std::move(queue.front());
        queue.pop_front();
      }
      ReadRecord r = Resolve(service, f.index, f.future, f.due, f.v0);
      {
        std::lock_guard<std::mutex> lock(mu);
        g.open.push_back(std::move(r));
        ++resolved;
      }
      cv.notify_all();
    }
  });
  std::thread writer([&] {
    size_t j = 0;
    for (int b = 0; b < kBlocks; ++b) {
      Clock::time_point block_zero;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return open_block >= b; });
        block_zero = zero;
      }
      for (; j < writes && block_of(in.write_due_us[j]) == b; ++j) {
        const auto due =
            block_zero + std::chrono::microseconds(in.write_due_us[j]);
        std::this_thread::sleep_until(due);
        g.write_late_ms.push_back(MsBetween(due, Clock::now()));
        smoqe::Status s = service.Apply(std::move(deltas[j]));
        g.write_ms.push_back(MsBetween(due, Clock::now()));
        g.write_codes.push_back(static_cast<int>(s.code()));
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        writer_block = b + 1;
      }
      cv.notify_all();
    }
  });

  std::vector<size_t> open, closed;
  for (size_t i = 0; i < in.reads.size(); ++i) {
    if (in.reads[i].phase == 'o') open.push_back(i);
    if (in.reads[i].phase == 'c') closed.push_back(i);
  }
  const size_t per_round = closed.size() / kBlocks;
  size_t next_open = 0;
  const Calibration calibration;
  g.calibration_ms.push_back(calibration.RunMs());
  for (int b = 0; b < kBlocks; ++b) {
    const auto steal0 = CpuSteal();
    const double cpu0 = CpuMs();
    int64_t ops = std::count_if(
        in.write_due_us.begin(), in.write_due_us.begin() + writes,
        [&](int64_t due) { return block_of(due) == b; });
    {
      std::lock_guard<std::mutex> lock(mu);
      zero = Clock::now() + std::chrono::milliseconds(20) -
             std::chrono::microseconds(static_cast<int64_t>(b * block_us));
      open_block = b;
    }
    cv.notify_all();
    for (; next_open < open.size() &&
           block_of(in.reads[open[next_open]].due_us) == b;
         ++next_open, ++ops) {
      const size_t i = open[next_open];
      const auto due = zero + std::chrono::microseconds(in.reads[i].due_us);
      std::this_thread::sleep_until(due);
      g.send_late_ms.push_back(MsBetween(due, Clock::now()));
      const uint64_t v0 = service.document_version();
      InFlight f{i, due, v0, Submit(service, in, in.reads[i])};
      {
        std::lock_guard<std::mutex> lock(mu);
        queue.push_back(std::move(f));
        ++submitted;
      }
      cv.notify_all();
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock,
              [&] { return resolved == submitted && writer_block > b; });
    }
    const double cpu1 = CpuMs();
    g.block_steal.push_back(StealShare(steal0, CpuSteal()));
    std::deque<InFlight> window;
    size_t next = b * per_round;
    const size_t end = next + per_round;
    const auto t0 = Clock::now();
    while (next < end || !window.empty()) {
      while (window.size() < kClosedWindow && next < end) {
        const ReadOp& op = in.reads[closed[next]];
        window.push_back({closed[next], Clock::now(),
                          service.document_version(),
                          Submit(service, in, op)});
        ++next;
      }
      InFlight& f = window.front();
      g.closed.push_back(Resolve(service, f.index, f.future, f.due, f.v0));
      window.pop_front();
    }
    g.round_ms.push_back(MsBetween(t0, Clock::now()));
    g.round_cpu_ms.push_back(CpuMs() - cpu1);
    g.block_cpu_ms.push_back(cpu1 - cpu0);
    g.block_ops.push_back(ops);
    g.calibration_ms.push_back(calibration.RunMs());
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    sender_done = true;
  }
  cv.notify_all();
  collector.join();
  writer.join();

  const exec::QueryServiceStats end_stats = service.stats();
  for (auto field : {&exec::QueryServiceStats::queries_answered,
                     &exec::QueryServiceStats::batches,
                     &exec::QueryServiceStats::batches_aged,
                     &exec::QueryServiceStats::coalesced_duplicates,
                     &exec::QueryServiceStats::evaluator_reuses,
                     &exec::QueryServiceStats::role_groups,
                     &exec::QueryServiceStats::writes_applied}) {
    g.stats.*field = end_stats.*field - warm_stats.*field;
  }
  g.final_version = service.document_version();
  return g;
}

std::string Joined(const std::vector<double>& values) {
  std::string text;
  for (double v : values) {
    text += (text.empty() ? "" : " ") + std::to_string(v);
  }
  return text;
}

}  // namespace

int Serve(const std::string& dir) {
  const Inputs in = Load(dir);
  const Workload& w = in.workload;
  const bool durable = w.write_rate > 0;
  const std::string store = dir + "/serve_store";
  if (durable) {
    std::filesystem::remove_all(store);
    std::filesystem::copy(in.store0(), store,
                          std::filesystem::copy_options::recursive);
  }
  std::vector<xml::TreeDelta> deltas;  // decoded before any timing
  for (size_t i = w.wal_tail; i < in.deltas.size(); ++i) {
    deltas.push_back(OrDie(xml::TreeDelta::Deserialize(in.deltas[i]),
                           "decode delta"));
  }

  const std::string result = dir + "/child_result.txt";
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetUps; ++rep) {
    InChild("set-up", [&] {
      const auto t0 = Clock::now();
      const std::unique_ptr<Served> served = SetUp(in, store);
      const double seconds = MsBetween(t0, Clock::now()) / 1000.0;
      std::ostringstream text;
      text << std::setprecision(17) << seconds;
      WriteFileOrDie(result, text.str());
    });
    setup_s.push_back(std::stod(ReadFileOrDie(result)));
  }

  const auto steal0 = CpuSteal();
  InChild("serving", [&] {
    WriteFileOrDie(result, Serialize(RunServing(in, store, deltas)));
  });
  Measured all = Deserialize(ReadFileOrDie(result));
  const auto steal1 = CpuSteal();
  std::filesystem::remove(result);
  if (durable) std::filesystem::remove_all(store);
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);  // the largest child waited for
  const double rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  // ---- results ----
  // A failed read counts as missing every latency limit.
  std::vector<double> open_ms;
  for (const ReadRecord& r : all.open) {
    open_ms.push_back(r.code == 0 ? r.latency_ms : 1e12);
  }
  // The same reads the traced run replays (its exec.dispatch_residual_ms).
  std::vector<double> replayed_ms;
  for (size_t k = 0; k < all.open.size() &&
                     in.reads[all.open[k].index].due_us <
                         w.replay_seconds * 1e6;
       ++k) {
    replayed_ms.push_back(open_ms[k]);
  }
  std::sort(open_ms.begin(), open_ms.end());
  std::sort(replayed_ms.begin(), replayed_ms.end());
  // CPU time per operation in each block's open loop and per read in each
  // closed round, as measured and scaled by the calibration runs on either
  // side of the block; the gated figures are the scaled medians.
  std::vector<double> op_cpu, read_cpu, op_cal, read_cal;
  const size_t per_round = all.closed.size() / kBlocks;
  for (size_t b = 0; b < all.block_ops.size(); ++b) {
    op_cpu.push_back(all.block_cpu_ms[b] /
                     static_cast<double>(std::max<int64_t>(all.block_ops[b], 1)));
    read_cpu.push_back(all.round_cpu_ms[b] / static_cast<double>(per_round));
    const double scale = 2 * kCalibrationMs / (all.calibration_ms[b] +
                                               all.calibration_ms[b + 1]);
    op_cal.push_back(op_cpu.back() * scale);
    read_cal.push_back(read_cpu.back() * scale);
  }
  const std::string op_cpu_blocks = Joined(op_cpu);
  const std::string read_cpu_rounds = Joined(read_cpu);
  std::vector<double> calibration = all.calibration_ms;
  for (auto* v : {&op_cpu, &read_cpu, &op_cal, &read_cal, &calibration}) {
    std::sort(v->begin(), v->end());
  }
  double round_ms = 0;
  for (double ms : all.round_ms) round_ms += ms;
  std::sort(all.send_late_ms.begin(), all.send_late_ms.end());
  std::vector<double> write_sorted;
  for (size_t j = 0; j < all.write_ms.size(); ++j) {
    write_sorted.push_back(all.write_codes[j] == 0 ? all.write_ms[j] : 1e12);
  }
  std::sort(write_sorted.begin(), write_sorted.end());
  std::sort(all.write_late_ms.begin(), all.write_late_ms.end());
  const std::string setup_runs = Joined(setup_s);
  std::sort(setup_s.begin(), setup_s.end());

  Json out;
  out.Num("cpu_ms_per_op", Percentile(op_cal, 0.5));
  out.Num("cpu_ms_per_read", Percentile(read_cal, 0.5));
  out.Num("raw_cpu_ms_per_op", Percentile(op_cpu, 0.5));
  out.Num("raw_cpu_ms_per_read", Percentile(read_cpu, 0.5));
  out.Num("calibration_ms", Percentile(calibration, 0.5));
  out.Num("read_p50_ms", Percentile(open_ms, 0.50));
  out.Num("read_p99_ms", Percentile(open_ms, 0.99));
  out.Int("read_samples", static_cast<int64_t>(open_ms.size()));
  out.Int("read_p99_beyond", SamplesBeyond(open_ms.size(), 0.99));
  out.Int("read_p99_reportable", PercentileReportable(open_ms.size(), 0.99));
  out.Num("read_p50_replayed_ms", Percentile(replayed_ms, 0.50));
  out.Num("read_qps_max", static_cast<double>(all.closed.size()) /
                              (round_ms / 1000.0));
  out.Int("closed_reads", static_cast<int64_t>(all.closed.size()));
  // Per block, so a block that measured the host shows: CPU per operation
  // (open loop) and per read (closed round) as measured, wall time of the
  // round, the CPU steal share of the open loop, and the calibration runs
  // (before the first block and after each round).
  out.Str("block_cpu_ms_per_op", op_cpu_blocks);
  out.Str("round_cpu_ms_per_read", read_cpu_rounds);
  out.Str("round_ms", Joined(all.round_ms));
  out.Str("block_steal", Joined(all.block_steal));
  out.Str("calibration_runs_ms", Joined(all.calibration_ms));
  out.Num("write_p50_ms", Percentile(write_sorted, 0.50));
  out.Num("write_p99_ms", Percentile(write_sorted, 0.99));
  out.Int("write_samples", static_cast<int64_t>(write_sorted.size()));
  out.Int("write_p99_beyond", SamplesBeyond(write_sorted.size(), 0.99));
  // Set-up time at the calibration's host speed, as the CPU figures.
  out.Num("setup_s", setup_s[setup_s.size() / 2] * kCalibrationMs /
                         Percentile(calibration, 0.5));
  out.Num("raw_setup_s", setup_s[setup_s.size() / 2]);
  out.Str("setup_runs_s", setup_runs);
  out.Num("rss_mb", rss_mb);
  out.Num("sender_late_p99_ms", Percentile(all.send_late_ms, 0.99));
  out.Num("sender_late_max_ms",
          all.send_late_ms.empty() ? 0 : all.send_late_ms.back());
  out.Num("writer_late_p99_ms", Percentile(all.write_late_ms, 0.99));
  out.Num("writer_late_max_ms",
          all.write_late_ms.empty() ? 0 : all.write_late_ms.back());
  out.Num("steal_frac", StealShare(steal0, steal1));
  out.Int("final_version", static_cast<int64_t>(all.final_version));
  // Service counters over the measured phases (after the warm-up).
  out.Int("svc_queries", all.stats.queries_answered);
  out.Int("svc_batches", all.stats.batches);
  out.Int("svc_batches_aged", all.stats.batches_aged);
  out.Int("svc_coalesced", all.stats.coalesced_duplicates);
  out.Int("svc_evaluator_reuses", all.stats.evaluator_reuses);
  out.Int("svc_role_groups", all.stats.role_groups);
  out.Int("svc_writes", all.stats.writes_applied);
  WriteFileOrDie(dir + "/serve.json", out.str());

  std::ostringstream answers;
  for (const auto* reads : {&all.open, &all.closed}) {
    for (const ReadRecord& r : *reads) {
      answers << r.index << ' ' << r.v0 << ' ' << r.v1 << ' ' << r.code << ' '
              << r.fp.size << ' ' << r.fp.hash << ' ' << r.latency_ms << '\n';
    }
  }
  WriteFileOrDie(dir + "/answers.txt", answers.str());
  std::ostringstream writes;
  for (int code : all.write_codes) writes << code << '\n';
  WriteFileOrDie(dir + "/writes_out.txt", writes.str());
  return 0;
}

}  // namespace servebench
