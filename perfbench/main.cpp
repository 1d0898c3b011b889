// The CATT benchmark: one process, three closed-loop workloads.
//
//   catt_perfbench --workload <cs_sweep|suite_policies|warm_replay>
//                  --seed N --seconds S --trace 0|1
//                  [--expected DIR] [--scratch DIR] [--commit ID]
//                  [--write-digests FILE] [--reference]
//
// One client sends a request and waits for its answer before sending the
// next (a closed loop with one client). A request is a batch of queries (one
// application's, or for warm_replay all of them), answered by a pool of
// nproc workers through the library's public entry points
// (throttle::Runner, exec::SweepEngine, exec::DiskCache, and for the compile
// path ir::to_cuda, frontend::parse_program, analysis::analyze,
// xform::apply_plan). The seed only permutes the submission order; the
// inputs are the fixed kernels of src/workloads. Every answer's simulated
// statistics are digested and compared with the expected digests in
// --expected; a mismatch or an exception is a failed query.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs untraced passes,
// then a traced pass with spans around every public call the benchmark makes,
// then a layer-by-layer replay of the simulations (Gpu::run per launch),
// and prints per-layer metrics, self times and the tracing overhead.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.hpp"
#include "common/hash.hpp"
#include "digest.hpp"
#include "exec/cache_key.hpp"
#include "exec/disk_cache.hpp"
#include "exec/pool.hpp"
#include "exec/sweep.hpp"
#include "frontend/parser.hpp"
#include "gpusim/bytecode.hpp"
#include "harness/harness.hpp"
#include "ir/codegen.hpp"
#include "obs/obs.hpp"
#include "spans.hpp"
#include "summary.hpp"
#include "transform/transform.hpp"

extern char** environ;

namespace {

using namespace catt;
using perfbench::LaunchFacts;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;
using Clock = std::chrono::steady_clock;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& v) { return static_cast<double>(v.tv_sec) + v.tv_usec * 1e-6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

int host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// Strategy and observability knobs the library reads from the
/// environment. They are removed before anything reads them, so the
/// benchmark always measures the defaults.
std::vector<std::string> clear_strategy_env() {
  static const std::set<std::string> kNames = {
      "CATT_SIM_THREADS", "CATT_TRACE_THREADS", "CATT_CACHE_DIR",   "CATT_SERVE_SOCKET",
      "CATT_RENDER_CACHE", "CATT_NO_AVX2",      "CATT_PROFILE",     "CATT_METRICS_INTERVAL"};
  std::vector<std::string> present;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    const std::string name = kv.substr(0, kv.find('='));
    if (kNames.count(name) != 0 || name.rfind("CATT_TRACE", 0) == 0) present.push_back(name);
  }
  for (const std::string& n : present) unsetenv(n.c_str());
  std::vector<std::string> cleared(kNames.begin(), kNames.end());
  cleared.push_back("CATT_TRACE*");
  return cleared;
}

// --- queries -------------------------------------------------------------

enum class Machine { kMax, kSmall };
enum class Kind { kBaseline, kCatt, kAdaptive, kDyncta, kBftt, kCompile };

const char* machine_name(Machine m) { return m == Machine::kMax ? "max" : "small"; }

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kBaseline: return "baseline";
    case Kind::kCatt: return "catt";
    case Kind::kAdaptive: return "catt+adaptive";
    case Kind::kDyncta: return "dyncta";
    case Kind::kBftt: return "bftt";
    case Kind::kCompile: return "compile";
  }
  return "?";
}

struct Query {
  std::string id;  // "<machine>/<app>/<kind>", independent of the seed
  const wl::Workload* w = nullptr;
  Machine machine = Machine::kMax;
  Kind kind = Kind::kBaseline;
};

/// A batch of queries sent as one request. `client` queries run on the
/// client thread in order (a BFTT sweep fans its candidates out over the
/// pool itself); each entry of `jobs` is a list of queries one pool worker
/// answers in order. The client waits for the whole request before sending
/// the next.
struct Request {
  std::vector<std::size_t> client;
  std::vector<std::vector<std::size_t>> jobs;
};

struct CompileCounts {
  std::uint64_t kernels_parsed = 0;
  std::uint64_t analyses = 0;
  std::uint64_t catt_loops = 0;
  std::uint64_t catt_loops_throttled = 0;
  std::uint64_t warp_split_loops = 0;

  CompileCounts& operator+=(const CompileCounts& o) {
    kernels_parsed += o.kernels_parsed;
    analyses += o.analyses;
    catt_loops += o.catt_loops;
    catt_loops_throttled += o.catt_loops_throttled;
    warp_split_loops += o.warp_split_loops;
    return *this;
  }
};

struct Answer {
  std::uint64_t digest = 0;
  std::int64_t total_cycles = 0;
  std::vector<LaunchFacts> launches;  // BFTT: the winner's launches
  std::vector<throttle::FixedFactor> sweep_factors;
  std::vector<std::int64_t> sweep_cycles;
  std::size_t unique_runs = 0;
  std::vector<throttle::KernelChoice> choices;
  CompileCounts compile;
  bool failed = false;
  std::string error;
};

LaunchFacts launch_facts(const sim::KernelStats& s) {
  return {s.cycles, s.l1.hits, s.l1.misses, s.l2.hits, s.l2.misses, s.dram_lines, s.warp_insts};
}

std::vector<LaunchFacts> facts_of(const std::vector<sim::KernelStats>& launches) {
  std::vector<LaunchFacts> out;
  out.reserve(launches.size());
  for (const sim::KernelStats& s : launches) out.push_back(launch_facts(s));
  return out;
}

std::uint64_t bftt_digest(const std::vector<std::int64_t>& sweep_cycles,
                          const std::vector<LaunchFacts>& best) {
  hash::Fnv1a h;
  for (std::int64_t c : sweep_cycles) h.i64(c);
  return hash::combine(perfbench::digest_launches("bftt", best), h.value());
}

/// Largest divisor of `warps` that is <= n (the clamp Runner applies to a
/// fixed warp divisor).
int clamp_divisor(int warps, int n) {
  n = std::min(n, warps);
  while (n > 1 && warps % n != 0) --n;
  return std::max(1, n);
}

/// The throttle plan a fixed factor means for one kernel launch: split
/// every top-level loop without a barrier, cap TBs below the baseline. This
/// is the Runner's fixed-factor planning (private to the library); the
/// replay's digest check catches any divergence from it.
analysis::ThrottlePlan fixed_plan(const analysis::KernelAnalysis& ka, const ir::Kernel& k,
                                  const throttle::FixedFactor& f) {
  analysis::ThrottlePlan plan;
  const int n = clamp_divisor(ka.occ.warps_per_tb, f.n_divisor);
  if (n > 1) {
    const auto loops = ir::collect_loops(k);
    for (const auto& loop : ka.loops) {
      if (!loop.top_level) continue;
      if (ir::contains_sync(*loops[static_cast<std::size_t>(loop.loop_id)])) continue;
      plan.warp_throttles.push_back({loop.loop_id, n});
    }
  }
  if (f.tb_limit > 0 && f.tb_limit < ka.occ.tbs_per_sm) plan.tb_limit = f.tb_limit;
  return plan;
}

/// Counts CATT's decisions: top-level loops analysed, and those it
/// throttles (N > 1, or a kernel-wide TB cap).
void count_catt_loops(const analysis::KernelAnalysis& ka, CompileCounts& c) {
  for (const auto& loop : ka.loops) {
    if (!loop.top_level) continue;
    ++c.catt_loops;
    if (!loop.decision.unresolvable && (loop.decision.n_divisor > 1 || ka.plan.tb_limit > 0)) {
      ++c.catt_loops_throttled;
    }
  }
}

// --- the benchmark state ---------------------------------------------------

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string expected_dir = "perfbench/expected";
  std::string scratch = ".bench_build/perfbench_scratch";
  std::string commit = "unknown";
  std::string write_digests;
  bool reference = false;
};

struct Bench {
  Config cfg;
  arch::GpuArch max_arch = bench::max_l1d_arch();
  arch::GpuArch small_arch = bench::small_l1d_arch();
  std::unique_ptr<exec::Pool> pool;
  std::vector<wl::Workload> apps;
  std::vector<Query> queries;
  std::vector<Request> requests;
  /// warm_replay: the disk cache the set-up filled.
  std::string cache_dir;
  exec::DiskCache::Counters fill_counters;
  std::vector<Answer> fill_answers;

  const arch::GpuArch& arch_of(Machine m) const { return m == Machine::kMax ? max_arch : small_arch; }
};

/// Everything one pass needs: fresh Runners (empty SimCaches), the disk
/// tier when the workload reads one, and the span recorder when traced.
struct Pass {
  Bench& b;
  std::unique_ptr<exec::DiskCache> disk;
  std::unique_ptr<throttle::Runner> max_runner;
  std::unique_ptr<throttle::Runner> small_runner;
  std::vector<Answer> answers;
  SpanRecorder* rec = nullptr;
  int root = perfbench::kNoParent;

  Pass(Bench& bench, SpanRecorder* recorder, const std::string& disk_dir, bool reference)
      : b(bench), rec(recorder) {
    if (!disk_dir.empty()) {
      exec::DiskCacheConfig dc;
      dc.dir = disk_dir;
      dc.evict = exec::DiskCacheConfig::Evict::kNone;
      disk = std::make_unique<exec::DiskCache>(dc);
    }
    max_runner = std::make_unique<throttle::Runner>(b.max_arch, b.pool.get());
    small_runner = std::make_unique<throttle::Runner>(b.small_arch, b.pool.get());
    for (throttle::Runner* r : {max_runner.get(), small_runner.get()}) {
      r->set_disk_cache(disk.get());
      r->sim_options.use_stepped_reference = reference;
    }
    answers.resize(b.queries.size());
  }

  throttle::Runner& runner(Machine m) { return m == Machine::kMax ? *max_runner : *small_runner; }
};

/// The compile path for one (application, machine): for every schedule
/// entry and every candidate factor (plus CATT's own plan), print the
/// kernel as CUDA, parse it back, analyse it and apply the plan. The
/// digest covers the printed transformed kernels.
void compile_app(Pass& p, std::size_t qi, int parent, Answer& a) {
  const Query& q = p.b.queries[qi];
  const arch::GpuArch& arch = p.b.arch_of(q.machine);
  const std::vector<throttle::FixedFactor> factors = p.runner(q.machine).candidate_factors(*q.w);
  hash::Fnv1a h;
  const auto qid = static_cast<std::int64_t>(qi);
  for (const wl::KernelRun& entry : q.w->schedule) {
    const ir::Kernel& k = q.w->kernel(entry.kernel);
    for (std::size_t fi = 0; fi <= factors.size(); ++fi) {
      const bool catt_plan = fi == factors.size();
      std::string src;
      {
        ScopedSpan s(p.rec, "ir.codegen", parent, qid);
        src = ir::to_cuda(k);
      }
      std::vector<ir::Kernel> parsed;
      {
        ScopedSpan s(p.rec, "frontend.parse", parent, qid);
        parsed = frontend::parse_program(src);
      }
      a.compile.kernels_parsed += parsed.size();
      auto it = std::find_if(parsed.begin(), parsed.end(),
                             [&](const ir::Kernel& pk) { return pk.name == k.name; });
      if (it == parsed.end()) throw std::runtime_error("parsed source lacks " + k.name);
      analysis::KernelAnalysis ka;
      {
        ScopedSpan s(p.rec, "catt.analyze", parent, qid);
        ka = analysis::analyze(arch, *it, entry.launch, entry.params);
      }
      ++a.compile.analyses;
      if (catt_plan) count_catt_loops(ka, a.compile);
      const analysis::ThrottlePlan plan = catt_plan ? ka.plan : fixed_plan(ka, *it, factors[fi]);
      xform::TransformResult tr;
      {
        ScopedSpan s(p.rec, "transform.apply", parent, qid);
        tr = xform::apply_plan(arch, *it, entry.launch, plan);
      }
      a.compile.warp_split_loops += static_cast<std::uint64_t>(tr.warp_split_loops);
      {
        ScopedSpan s(p.rec, "ir.codegen", parent, qid);
        h.str(ir::to_cuda(tr.kernel));
      }
    }
  }
  a.digest = h.value();
}

void answer_query(Pass& p, std::size_t qi, int parent) {
  const Query& q = p.b.queries[qi];
  Answer& a = p.answers[qi];
  const bool compile = q.kind == Kind::kCompile;
  ScopedSpan span(p.rec, compile ? "compile.query" : "throttle.query", parent,
                  static_cast<std::int64_t>(qi));
  try {
    throttle::Runner& r = p.runner(q.machine);
    throttle::AppResult res;
    switch (q.kind) {
      case Kind::kBaseline: res = r.run(*q.w, throttle::Baseline{}); break;
      case Kind::kCatt: res = r.run(*q.w, throttle::Catt{}); break;
      case Kind::kAdaptive: res = r.run(*q.w, throttle::Adaptive{}); break;
      case Kind::kDyncta: res = r.run(*q.w, throttle::Dyncta{}); break;
      case Kind::kBftt: {
        throttle::Runner::BfttOutcome out = r.bftt_sweep(*q.w);
        for (const auto& [f, cycles] : out.sweep) {
          a.sweep_factors.push_back(f);
          a.sweep_cycles.push_back(cycles);
        }
        a.unique_runs = out.unique_runs;
        res = std::move(out.best);
        break;
      }
      case Kind::kCompile: compile_app(p, qi, span.id(), a); return;
    }
    a.launches = facts_of(res.launches);
    a.total_cycles = res.total_cycles;
    a.choices = std::move(res.choices);
    a.digest = q.kind == Kind::kBftt ? bftt_digest(a.sweep_cycles, a.launches)
                                     : perfbench::digest_launches(kind_name(q.kind), a.launches);
  } catch (const std::exception& e) {
    a.failed = true;
    a.error = e.what();
  }
}

std::vector<std::size_t> shuffled(std::size_t n, std::mt19937_64& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

/// Sends every request, one at a time and in an order drawn from `rng`,
/// and waits for each; the jobs of a request are submitted in an order
/// drawn from `rng` too.
void send_requests(Pass& p, std::mt19937_64& rng) {
  exec::SweepEngine engine(*p.b.pool);
  for (std::size_t ri : shuffled(p.b.requests.size(), rng)) {
    const Request& req = p.b.requests[ri];
    ScopedSpan rspan(p.rec, "request", p.root);
    for (std::size_t qi : req.client) answer_query(p, qi, rspan.id());
    if (req.jobs.empty()) continue;
    const std::vector<std::size_t> jobs = shuffled(req.jobs.size(), rng);
    ScopedSpan sweep(p.rec, "exec.sweep", rspan.id());
    engine.for_each(jobs.size(), [&](std::size_t j) {
      for (std::size_t qi : req.jobs[jobs[j]]) answer_query(p, qi, sweep.id());
    });
  }
}

/// The results table every bench main ends with, as CSV (kept in memory).
std::string format_csv(const Bench& b, const std::vector<Answer>& answers) {
  CsvWriter csv({"query", "total_cycles", "digest", "error"});
  for (std::size_t i = 0; i < answers.size(); ++i) {
    csv.add_row({b.queries[i].id, std::to_string(answers[i].total_cycles),
                 perfbench::hex16(answers[i].digest), answers[i].error});
  }
  return csv.str();
}

// --- workloads -------------------------------------------------------------

/// The 27 applications of the CS, CI and irregular groups, built fresh
/// (the library's workload registry is a per-process singleton, so
/// building through the factories is what makes set-up repeatable).
std::vector<wl::Workload> build_apps() {
  using Factory = wl::Workload (*)(int);
  static const Factory kFactories[] = {
      wl::make_gsmv, wl::make_syr2k, wl::make_atax, wl::make_bicg,  wl::make_mvt,
      wl::make_corr, wl::make_bfs,   wl::make_cfd,  wl::make_km,    wl::make_pf,
      wl::make_gram, wl::make_syrk,  wl::make_bt,   wl::make_hp,    wl::make_lvmd,
      wl::make_2mm,  wl::make_gemm,  wl::make_3mm,  wl::make_bp,    wl::make_hm,
      wl::make_lud,  wl::make_hw,    wl::make_mc,   wl::make_nw,    wl::make_fbank,
      wl::make_bfs_wf, wl::make_stencil_div};
  std::vector<wl::Workload> apps;
  for (Factory f : kFactories) apps.push_back(f(bench::kNumSms));
  return apps;
}

std::vector<const wl::Workload*> apps_in(const Bench& b, std::initializer_list<wl::Group> groups) {
  std::vector<const wl::Workload*> out;
  for (wl::Group g : groups) {
    for (const wl::Workload& w : b.apps) {
      if (w.group == g) out.push_back(&w);
    }
  }
  return out;
}

std::size_t add_query(Bench& b, const wl::Workload* w, Machine m, Kind k) {
  b.queries.push_back({std::string(machine_name(m)) + "/" + w->name + "/" + kind_name(k), w, m, k});
  return b.queries.size() - 1;
}

/// Applications whose cold simulation is cheap: warm_replay's set-up
/// simulates their baseline and CATT runs on both machines into a fresh
/// disk cache, several times per run, so the heaviest applications
/// (those above ~0.5 s of single-core simulation each) are left out.
bool cheap_to_simulate(const wl::Workload& w) {
  static const std::set<std::string> kHeavy = {"atax", "bicg", "mvt", "syr2k", "corr", "mm2", "mm3"};
  return kHeavy.count(w.name) == 0;
}

void build_queries(Bench& b) {
  b.queries.clear();
  b.requests.clear();
  const std::string& name = b.cfg.workload;
  if (name == "cs_sweep") {
    for (const wl::Workload* w : apps_in(b, {wl::Group::kCS})) {
      Request r;
      // BFTT first: its identity candidate is the baseline, so baseline
      // (and CATT where it leaves the code alone) are SimCache hits.
      r.client = {add_query(b, w, Machine::kMax, Kind::kBftt),
                  add_query(b, w, Machine::kMax, Kind::kBaseline),
                  add_query(b, w, Machine::kMax, Kind::kCatt)};
      b.requests.push_back(std::move(r));
    }
  } else if (name == "suite_policies") {
    for (const wl::Workload* w : apps_in(b, {wl::Group::kCS, wl::Group::kCI, wl::Group::kIrregular})) {
      Request r;
      // Baseline and CATT share a job so CATT reuses the baseline's
      // launches whenever the analysis leaves a kernel unchanged.
      r.jobs.push_back({add_query(b, w, Machine::kMax, Kind::kBaseline),
                        add_query(b, w, Machine::kMax, Kind::kCatt)});
      r.jobs.push_back({add_query(b, w, Machine::kMax, Kind::kAdaptive)});
      r.jobs.push_back({add_query(b, w, Machine::kMax, Kind::kDyncta)});
      if (w->group == wl::Group::kCS) {
        r.jobs.push_back({add_query(b, w, Machine::kSmall, Kind::kBaseline),
                          add_query(b, w, Machine::kSmall, Kind::kCatt)});
      }
      b.requests.push_back(std::move(r));
    }
  } else if (name == "warm_replay") {
    // One request holds every query: each answer is a few milliseconds of
    // work, so per-application round trips would measure thread wake-ups.
    Request r;
    for (const wl::Workload* w : apps_in(b, {wl::Group::kCS, wl::Group::kCI, wl::Group::kIrregular})) {
      for (Machine m : {Machine::kMax, Machine::kSmall}) {
        if (cheap_to_simulate(*w)) {
          r.jobs.push_back({add_query(b, w, m, Kind::kBaseline), add_query(b, w, m, Kind::kCatt)});
        }
        r.jobs.push_back({add_query(b, w, m, Kind::kCompile)});
      }
    }
    b.requests.push_back(std::move(r));
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (cs_sweep, suite_policies, warm_replay)");
  }
}

/// warm_replay's write path: simulate every disk-served query once into a
/// fresh cache directory.
void fill_disk_cache(Bench& b, const std::string& dir) {
  std::filesystem::remove_all(dir);
  Pass p(b, nullptr, dir, false);
  exec::SweepEngine engine(*b.pool);
  std::vector<std::size_t> sim_queries;
  for (std::size_t i = 0; i < b.queries.size(); ++i) {
    if (b.queries[i].kind != Kind::kCompile) sim_queries.push_back(i);
  }
  engine.for_each(sim_queries.size(), [&](std::size_t j) { answer_query(p, sim_queries[j], -1); });
  b.fill_counters = p.disk->counters();
  b.fill_answers = std::move(p.answers);
}

/// Builds the query list, the pool and (warm_replay) the filled disk
/// cache. Returns the seconds the building took; tearing down the previous
/// set-up is not timed.
double set_up(Bench& b, int index) {
  b.pool.reset();
  b.queries.clear();
  b.requests.clear();
  b.apps.clear();
  const auto t0 = Clock::now();
  b.pool = std::make_unique<exec::Pool>(host_cores());
  b.apps = build_apps();
  build_queries(b);
  if (b.cfg.workload == "warm_replay") {
    b.cache_dir = b.cfg.scratch + "/warm-cache-" + std::to_string(index);
    fill_disk_cache(b, b.cache_dir);
  }
  return seconds_since(t0);
}

// --- one pass and its checks ---------------------------------------------------

struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<Answer> answers;
  exec::DiskCache::Counters disk;
  std::uint64_t simcache_hits = 0;
  std::uint64_t simcache_lookups = 0;
  double csv_ms = 0.0;
};

PassResult run_pass(Bench& b, int pass_index, SpanRecorder* rec) {
  // Each pass draws a fresh submission order from the seed.
  std::mt19937_64 rng(hash::combine(b.cfg.seed, static_cast<std::uint64_t>(pass_index)));
  PassResult out;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  {
    Pass p(b, rec, b.cache_dir, b.cfg.reference);
    {
      ScopedSpan root(rec, "pass", perfbench::kNoParent);
      p.root = root.id();
      send_requests(p, rng);
      ScopedSpan csv_span(rec, "harness.csv", root.id());
      const auto c0 = Clock::now();
      format_csv(b, p.answers);
      out.csv_ms = seconds_since(c0) * 1e3;
    }
    if (p.disk) out.disk = p.disk->counters();
    for (throttle::Runner* r : {p.max_runner.get(), p.small_runner.get()}) {
      out.simcache_hits += r->cache().hits();
      out.simcache_lookups += r->cache().hits() + r->cache().misses();
    }
    out.answers = std::move(p.answers);
  }
  out.wall_s = seconds_since(t0);
  out.cpu_s = cpu_seconds() - cpu0;
  return out;
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;

  void fail(std::string note) {
    ++failed;
    if (notes.size() < 20) notes.push_back(std::move(note));
  }
};

/// Checks every answer of a pass against the expected digests. `sim_only`
/// restricts the check to the simulation queries (the ones warm_replay's
/// set-up answers).
void check_answers(const Bench& b, const std::vector<Answer>& answers,
                   const perfbench::DigestMap& expected, Tally& t, bool sim_only = false) {
  perfbench::DigestMap want;
  perfbench::DigestMap got;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const Query& q = b.queries[i];
    if (sim_only && q.kind == Kind::kCompile) continue;
    ++t.attempted;
    if (answers[i].failed) {
      t.fail(q.id + ": " + answers[i].error);
      continue;
    }
    got[q.id] = answers[i].digest;
    if (const auto it = expected.find(q.id); it != expected.end()) want[q.id] = it->second;
  }
  for (const perfbench::Mismatch& m : perfbench::compare_digests(want, got)) {
    t.fail(m.query + ": digest " + m.what);
  }
}

/// One digest over every (query, digest) pair of a pass, in query order:
/// equal across seeds exactly when every answer is.
std::uint64_t digest_set(const Bench& b, const std::vector<Answer>& answers) {
  hash::Fnv1a h;
  for (std::size_t i = 0; i < answers.size(); ++i) h.str(b.queries[i].id).u64(answers[i].digest);
  return h.value();
}

/// Geomean over the CS applications of baseline cycles / CATT cycles on
/// the max-L1D machine (simulated time), from whatever the pass answered.
double catt_speedup_geomean(const Bench& b, const std::vector<Answer>& answers) {
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> by_app;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const Query& q = b.queries[i];
    if (q.machine != Machine::kMax || q.w->group != wl::Group::kCS) continue;
    if (q.kind == Kind::kBaseline) by_app[q.w->name].first = answers[i].total_cycles;
    if (q.kind == Kind::kCatt) by_app[q.w->name].second = answers[i].total_cycles;
  }
  std::vector<double> s;
  for (const auto& [app, bc] : by_app) {
    if (bc.first > 0 && bc.second > 0) {
      s.push_back(static_cast<double>(bc.first) / static_cast<double>(bc.second));
    }
  }
  return perfbench::geomean(s);
}

// --- the layer-by-layer replay (traced run only) ----------------------------

/// One application run to re-simulate: the plan's kernels and, for
/// DYNCTA, the TB cap each launch ran under.
struct ReplayRun {
  const wl::Workload* w = nullptr;
  Machine machine = Machine::kMax;
  enum class Plan { kAsIs, kCatt, kFixed } plan = Plan::kAsIs;
  const throttle::FixedFactor* factor = nullptr;  // kFixed
  bool adaptive = false;
  bool dyncta = false;
  std::int64_t query = -1;
  std::vector<ir::Kernel> kernels;         // one per schedule entry
  std::vector<std::vector<int>> tb_caps;   // dyncta: per entry, per repeat
  std::uint64_t key = 0;
  std::vector<LaunchFacts> facts;
  CompileCounts counts;
  std::string error;  // set when simulating the run threw
};

struct ReplayMetrics {
  double run_ms = 0.0;
  double policy_run_ms = 0.0;
  double launch_ms_max = 0.0;
  std::uint64_t launches = 0;
  std::uint64_t warp_insts = 0;
  std::uint64_t sim_cycles = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_accesses = 0;
  std::uint64_t dram_lines = 0;
  std::uint64_t policy_decisions = 0;
  double disk_read_ms = 0.0;
  CompileCounts counts;
  obs::Registry::Snapshot registry;
};

/// Builds one run's kernels with the analysis and transform layers, the
/// way the Runner plans it for the query's policy.
void plan_run(Bench& b, ReplayRun& run, SpanRecorder* rec, int parent) {
  const arch::GpuArch& arch = b.arch_of(run.machine);
  for (const wl::KernelRun& entry : run.w->schedule) {
    const ir::Kernel& k = run.w->kernel(entry.kernel);
    if (run.plan == ReplayRun::Plan::kAsIs) {
      run.kernels.push_back(k.clone());
      continue;
    }
    analysis::KernelAnalysis ka;
    {
      ScopedSpan s(rec, "catt.analyze", parent, run.query);
      ka = analysis::analyze(arch, k, entry.launch, entry.params);
    }
    ++run.counts.analyses;
    const bool catt = run.plan == ReplayRun::Plan::kCatt;
    if (catt) count_catt_loops(ka, run.counts);
    const analysis::ThrottlePlan plan = catt ? ka.plan : fixed_plan(ka, k, *run.factor);
    ScopedSpan s(rec, "transform.apply", parent, run.query);
    xform::TransformResult tr = xform::apply_plan(arch, k, entry.launch, plan);
    run.counts.warp_split_loops += static_cast<std::uint64_t>(tr.warp_split_loops);
    run.kernels.push_back(std::move(tr.kernel));
  }
}

/// Content key of a planned run (the replay simulates each key once, as
/// the Runner's SimCache does).
void key_run(const Bench& b, ReplayRun& run) {
  exec::CacheKey key;
  key.gpu_arch(b.arch_of(run.machine)).str(run.w->name).b(run.adaptive).b(run.dyncta);
  for (std::size_t i = 0; i < run.kernels.size(); ++i) {
    const wl::KernelRun& entry = run.w->schedule[i];
    key.u64(exec::CacheKey{}.kernel(run.kernels[i]).launch(entry.launch).params(entry.params).value())
        .i32(entry.repeats);
    if (run.dyncta) {
      for (int cap : run.tb_caps[i]) key.i32(cap);
    }
  }
  run.key = key.value();
}

/// Simulates one run launch by launch with Gpu::run, from a fresh memory
/// image and empty modelled caches, exactly as the Runner does.
void simulate_run(Bench& b, ReplayRun& run, const obs::SimObs* ob, SpanRecorder* rec, int parent,
                  std::mutex& mu, ReplayMetrics& m) {
  sim::DeviceMemory mem;
  run.w->setup(mem);
  sim::Gpu gpu(b.arch_of(run.machine), mem);
  bool all_pure = !run.dyncta;
  for (const ir::Kernel& k : run.kernels) all_pure = all_pure && sim::bc::trace_data_independent(k);
  const char* span_name = run.adaptive ? "policy.run" : "gpusim.run";
  for (std::size_t i = 0; i < run.kernels.size(); ++i) {
    const wl::KernelRun& entry = run.w->schedule[i];
    sim::SimOptions opts;
    opts.obs = ob;
    if (run.adaptive) opts.sched = sim::sched::PolicyConfig::parse("adaptive");
    if (all_pure) {
      opts.skip_functional = true;
      opts.trace_key = exec::CacheKey{}
                           .u64(exec::CacheKey{}.kernel(run.kernels[i]).value())
                           .u64(exec::CacheKey{}.launch(entry.launch).value())
                           .u64(exec::CacheKey{}.params(entry.params).value())
                           .value();
      if (opts.trace_key == 0) opts.trace_key = 1;
    }
    LaunchFacts agg;
    for (int r = 0; r < entry.repeats; ++r) {
      if (run.dyncta) opts.tb_cap = run.tb_caps[i][static_cast<std::size_t>(r)];
      sim::LaunchSpec spec{&run.kernels[i], entry.launch, entry.params};
      const auto t0 = Clock::now();
      sim::KernelStats s;
      {
        ScopedSpan span(rec, span_name, parent, run.query);
        s = gpu.run(spec, opts);
      }
      const double ms = seconds_since(t0) * 1e3;
      agg += launch_facts(s);
      std::lock_guard<std::mutex> lock(mu);
      m.run_ms += ms;
      if (run.adaptive) m.policy_run_ms += ms;
      m.launch_ms_max = std::max(m.launch_ms_max, ms);
      ++m.launches;
      m.warp_insts += s.warp_insts;
      m.sim_cycles += static_cast<std::uint64_t>(s.cycles);
      m.l1_hits += s.l1.hits;
      m.l1_accesses += s.l1.accesses;
      m.dram_lines += s.dram_lines;
      m.policy_decisions += s.sched_decisions.size();
    }
    run.facts.push_back(agg);
  }
}

/// Replays the simulations behind a traced pass's answers layer by layer
/// and checks that every replayed statistic equals the answer's.
ReplayMetrics replay_simulations(Bench& b, const std::vector<Answer>& answers, SpanRecorder& rec,
                                 Tally& t) {
  ReplayMetrics m;
  std::vector<ReplayRun> runs;
  // For each query, the indexes of its runs in `runs`.
  std::vector<std::vector<std::size_t>> runs_of(answers.size());
  for (std::size_t qi = 0; qi < answers.size(); ++qi) {
    const Query& q = b.queries[qi];
    const Answer& a = answers[qi];
    if (a.failed || q.kind == Kind::kCompile) continue;
    auto add = [&](const throttle::FixedFactor* f) {
      ReplayRun r;
      r.w = q.w;
      r.machine = q.machine;
      r.adaptive = q.kind == Kind::kAdaptive;
      r.dyncta = q.kind == Kind::kDyncta;
      r.query = static_cast<std::int64_t>(qi);
      r.factor = f;
      if (f != nullptr) {
        r.plan = ReplayRun::Plan::kFixed;
      } else if (q.kind == Kind::kCatt || q.kind == Kind::kAdaptive) {
        r.plan = ReplayRun::Plan::kCatt;
      }
      if (r.dyncta) {
        for (const throttle::KernelChoice& c : a.choices) {
          std::vector<int> caps;
          for (const throttle::LoopTlp& l : c.loops) caps.push_back(l.tbs);
          r.tb_caps.push_back(std::move(caps));
        }
      }
      runs_of[qi].push_back(runs.size());
      runs.push_back(std::move(r));
    };
    if (q.kind == Kind::kBftt) {
      for (const throttle::FixedFactor& f : a.sweep_factors) add(&f);
    } else {
      add(nullptr);
    }
  }

  exec::SweepEngine engine(*b.pool);
  ScopedSpan root(&rec, "replay", perfbench::kNoParent);
  {
    ScopedSpan plan_span(&rec, "replay.plan", root.id());
    engine.for_each(runs.size(), [&](std::size_t i) {
      plan_run(b, runs[i], &rec, plan_span.id());
      key_run(b, runs[i]);
    });
  }
  std::map<std::uint64_t, std::size_t> first_of_key;
  std::vector<std::size_t> unique;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    m.counts += runs[i].counts;
    if (first_of_key.emplace(runs[i].key, i).second) unique.push_back(i);
  }

  obs::Registry registry;
  obs::SimObs ob;
  ob.registry = &registry;
  // An interval longer than any launch activates the engine's counters
  // without sampling inside launches or recording trace events.
  ob.metrics_interval = std::numeric_limits<std::int64_t>::max() / 4;
  std::mutex mu;
  {
    ScopedSpan sim_span(&rec, "replay.simulate", root.id());
    engine.for_each(unique.size(), [&](std::size_t u) {
      ReplayRun& r = runs[unique[u]];
      try {
        simulate_run(b, r, &ob, &rec, sim_span.id(), mu, m);
      } catch (const std::exception& e) {
        r.error = e.what();
      }
    });
  }
  m.registry = registry.scrape();

  for (std::size_t qi = 0; qi < answers.size(); ++qi) {
    if (runs_of[qi].empty()) continue;
    const Query& q = b.queries[qi];
    const Answer& a = answers[qi];
    ++t.attempted;
    auto run_of = [&](std::size_t ri) -> const ReplayRun& {
      return runs[first_of_key.at(runs[ri].key)];
    };
    auto facts = [&](std::size_t ri) -> const std::vector<LaunchFacts>& { return run_of(ri).facts; };
    const auto threw = std::find_if(runs_of[qi].begin(), runs_of[qi].end(),
                                    [&](std::size_t ri) { return !run_of(ri).error.empty(); });
    if (threw != runs_of[qi].end()) {
      t.fail(q.id + ": replay threw: " + run_of(*threw).error);
      continue;
    }
    std::uint64_t d = 0;
    if (q.kind == Kind::kBftt) {
      std::vector<std::int64_t> cycles;
      std::size_t best = 0;
      for (std::size_t k = 0; k < runs_of[qi].size(); ++k) {
        std::int64_t c = 0;
        for (const LaunchFacts& f : facts(runs_of[qi][k])) c += f.cycles;
        cycles.push_back(c);
        if (c < cycles[best]) best = k;
      }
      d = bftt_digest(cycles, facts(runs_of[qi][best]));
    } else {
      d = perfbench::digest_launches(kind_name(q.kind), facts(runs_of[qi][0]));
    }
    if (d != a.digest) t.fail(q.id + ": replayed statistics differ from the traced pass");
  }
  return m;
}

/// warm_replay's read path, replayed entry by entry: every launch-stats
/// entry in the cache directory is read back through DiskCache.
void replay_disk_reads(Bench& b, SpanRecorder& rec, ReplayMetrics& m, Tally& t) {
  exec::DiskCacheConfig dc;
  dc.dir = b.cache_dir;
  exec::DiskCache disk(dc);
  std::vector<std::uint64_t> keys;
  for (const auto& e : std::filesystem::recursive_directory_iterator(b.cache_dir)) {
    const std::string name = e.path().filename().string();
    if (!e.is_regular_file() || name.size() != 21 || name.substr(16) != "-1.ce") continue;
    keys.push_back(std::stoull(name.substr(0, 16), nullptr, 16));
  }
  std::sort(keys.begin(), keys.end());
  ScopedSpan root(&rec, "replay", perfbench::kNoParent);
  for (std::uint64_t key : keys) {
    const auto t0 = Clock::now();
    std::optional<sim::KernelStats> s;
    {
      ScopedSpan span(&rec, "exec.disk_read", root.id());
      s = disk.get_stats(key);
    }
    m.disk_read_ms += seconds_since(t0) * 1e3;
    ++t.attempted;
    if (!s) t.fail("disk entry " + std::to_string(key) + " did not read back");
  }
}

// --- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

double ratio(double a, double c) { return c == 0.0 ? 0.0 : a / c; }

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void print_rollup(const char* title, const std::vector<perfbench::Span>& spans) {
  const perfbench::Rollup r = perfbench::rollup(spans);
  std::printf("%s: wall %.3f ms\n", title, r.root_ns / 1e6);
  std::printf("  %-18s %12s %12s %10s\n", "span", "self_ms", "total_ms", "count");
  for (const auto& [name, lt] : r.by_name) {
    std::printf("  %-18s %12.3f %12.3f %10lld\n", name.c_str(), lt.self_ns / 1e6,
                lt.total_ns / 1e6, static_cast<long long>(lt.count));
  }
  std::printf("  %-18s %12.3f\n", "unattributed", r.unattributed_ns / 1e6);
}

double span_ms(const perfbench::Rollup& r, const std::string& name) {
  const auto it = r.by_name.find(name);
  return it == r.by_name.end() ? 0.0 : it->second.total_ns / 1e6;
}

/// The traced run: traced passes (spans around the benchmark's calls), then
/// the layer-by-layer replay; returns the per-layer metrics and prints
/// the self-time roll-ups and the tracing overhead. `walls` are the
/// untraced passes' wall times (at least two).
std::vector<Metric> traced_run(Bench& b, int pass_index, const std::vector<double>& walls,
                               double wall_s, double cpu_s, const perfbench::DigestMap& expected,
                               Tally& tally) {
  const Config& cfg = b.cfg;
  const int threads = b.pool->size();
  // Traced passes, then the layer replay.
  std::vector<double> traced_walls;
  std::unique_ptr<SpanRecorder> rec;
  PassResult traced;
  const auto t_traced = Clock::now();
  do {
    rec = std::make_unique<SpanRecorder>();
    traced = run_pass(b, pass_index++, rec.get());
    traced_walls.push_back(traced.wall_s);
    check_answers(b, traced.answers, expected, tally);
  } while (seconds_since(t_traced) < cfg.seconds / 4);
  const std::vector<perfbench::Span> pass_spans = rec->spans();
  const perfbench::Rollup pass_rollup = perfbench::rollup(pass_spans);

  SpanRecorder replay_rec;
  ReplayMetrics rm;
  if (cfg.workload == "warm_replay") {
    replay_disk_reads(b, replay_rec, rm, tally);
  } else {
    rm = replay_simulations(b, traced.answers, replay_rec, tally);
  }
  const std::vector<perfbench::Span> replay_spans = replay_rec.spans();
  const perfbench::Rollup replay_rollup = perfbench::rollup(replay_spans);

  CompileCounts cc = rm.counts;
  for (const Answer& a : traced.answers) cc += a.compile;
  std::vector<double> query_ms;
  for (const perfbench::Span& s : pass_spans) {
    if (s.name == "throttle.query") query_ms.push_back((s.end_ns - s.start_ns) / 1e6);
  }
  std::uint64_t candidates = 0;
  std::uint64_t unique_runs = 0;
  std::vector<double> gaps;
  std::map<std::string, std::int64_t> catt_cycles;
  for (std::size_t i = 0; i < traced.answers.size(); ++i) {
    if (b.queries[i].kind == Kind::kCatt && b.queries[i].machine == Machine::kMax) {
      catt_cycles[b.queries[i].w->name] = traced.answers[i].total_cycles;
    }
  }
  for (std::size_t i = 0; i < traced.answers.size(); ++i) {
    const Answer& a = traced.answers[i];
    if (b.queries[i].kind != Kind::kBftt) continue;
    candidates += a.sweep_cycles.size();
    unique_runs += a.unique_runs;
    const std::int64_t best = *std::min_element(a.sweep_cycles.begin(), a.sweep_cycles.end());
    gaps.push_back(static_cast<double>(catt_cycles.at(b.queries[i].w->name)) /
                   static_cast<double>(best));
  }
  auto reg = [&](const char* name) {
    return static_cast<double>(rm.registry.counter_or(name, 0));
  };
  // The first pass also pays the process's first-touch costs, so the
  // overhead is measured against the untraced passes after it.
  const double warm_wall = perfbench::median(std::vector<double>(walls.begin() + 1, walls.end()));
  const double traced_wall = perfbench::median(traced_walls);
  const exec::DiskCache::Counters& dk = traced.disk;
  std::vector<Metric> metrics = {
      {"frontend.parse_ms", span_ms(pass_rollup, "frontend.parse"), "ms"},
      {"frontend.kernels_parsed", static_cast<double>(cc.kernels_parsed), "count"},
      {"ir.codegen_ms", span_ms(pass_rollup, "ir.codegen"), "ms"},
      {"catt.analyze_ms", span_ms(pass_rollup, "catt.analyze") + span_ms(replay_rollup, "catt.analyze"), "ms"},
      {"catt.analyses", static_cast<double>(cc.analyses), "count"},
      {"catt.loops_throttled_ratio", ratio(cc.catt_loops_throttled, cc.catt_loops), "ratio"},
      {"catt.bftt_gap_geomean", perfbench::geomean(gaps), "ratio"},
      {"transform.apply_ms", span_ms(pass_rollup, "transform.apply") + span_ms(replay_rollup, "transform.apply"), "ms"},
      {"transform.warp_split_loops", static_cast<double>(cc.warp_split_loops), "count"},
      {"gpusim.run_ms", rm.run_ms, "ms"},
      {"gpusim.launches", static_cast<double>(rm.launches), "count"},
      {"gpusim.launch_ms_max", rm.launch_ms_max, "ms"},
      {"gpusim.warp_insts", static_cast<double>(rm.warp_insts), "count"},
      {"gpusim.sim_cycles", static_cast<double>(rm.sim_cycles), "cycles"},
      {"gpusim.ns_per_warp_inst", ratio(rm.run_ms * 1e6, static_cast<double>(rm.warp_insts)), "ns"},
      {"gpusim.l1d_hit_rate", ratio(rm.l1_hits, rm.l1_accesses), "ratio"},
      {"gpusim.dram_lines", static_cast<double>(rm.dram_lines), "count"},
      {"gpusim.trace_gen_ms", reg("sim.trace_gen_us") / 1e3, "ms"},
      {"gpusim.timing_ms", (reg("sim.total_us") - reg("sim.trace_gen_us")) / 1e3, "ms"},
      {"gpusim.sm_steps", reg("sim.sm_steps"), "count"},
      {"gpusim.render_cache_hits", reg("sim.tracegen.render_cache_hits"), "count"},
      {"policy.decisions", static_cast<double>(rm.policy_decisions), "count"},
      {"policy.run_ms", rm.policy_run_ms, "ms"},
      {"exec.simcache_hit_ratio", ratio(traced.simcache_hits, traced.simcache_lookups), "ratio"},
      {"exec.bftt_unique_ratio", ratio(unique_runs, candidates), "ratio"},
      {"exec.disk_hits", static_cast<double>(dk.hits), "count"},
      {"exec.disk_misses", static_cast<double>(dk.misses), "count"},
      {"exec.disk_writes", static_cast<double>(b.fill_counters.writes), "count"},
      {"exec.disk_read_ms", rm.disk_read_ms, "ms"},
      {"exec.cpu_util", ratio(cpu_s, wall_s * threads), "ratio"},
      {"exec.critical_path_share", ratio(rm.launch_ms_max, wall_s * 1e3), "ratio"},
      {"throttle.query_ms_p50", perfbench::median(query_ms), "ms"},
      {"throttle.query_ms_max", perfbench::percentile(query_ms, 1.0), "ms"},
      {"throttle.queries", static_cast<double>(query_ms.size()), "count"},
      {"harness.csv_ms", traced.csv_ms, "ms"},
      {"trace.unattributed_ms", (pass_rollup.unattributed_ns + replay_rollup.unattributed_ns) / 1e6, "ms"},
      {"trace.overhead_ratio", ratio(traced_wall - warm_wall, warm_wall), "ratio"},
  };
  print_rollup("traced pass (spans around the benchmark's public calls)", pass_spans);
  print_rollup(cfg.workload == "warm_replay" ? "replay of the disk read path"
                                             : "layer replay of the pass's simulations",
               replay_spans);
  std::printf("tracing overhead: traced pass %.4f s vs untraced %.4f s (%+.2f%%)\n", traced_wall,
              warm_wall, 100.0 * ratio(traced_wall - warm_wall, warm_wall));
  return metrics;
}

Config parse_args(int argc, char** argv) {
  Config c;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") c.workload = value();
    else if (a == "--seed") c.seed = std::stoull(value());
    else if (a == "--seconds") c.seconds = std::stod(value());
    else if (a == "--trace") c.trace = std::stoi(value());
    else if (a == "--expected") c.expected_dir = value();
    else if (a == "--scratch") c.scratch = value();
    else if (a == "--commit") c.commit = value();
    else if (a == "--write-digests") c.write_digests = value();
    else if (a == "--reference") c.reference = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (c.workload.empty()) throw std::invalid_argument("--workload is required");
  if (c.trace != 0 && c.trace != 1) throw std::invalid_argument("--trace must be 0 or 1");
  if (!(c.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return c;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int run(int argc, char** argv) {
  const std::vector<std::string> cleared = clear_strategy_env();
  Bench b;
  b.cfg = parse_args(argc, argv);
  const Config& cfg = b.cfg;
  std::filesystem::create_directories(cfg.scratch);

  const bool generating = !cfg.write_digests.empty();
  perfbench::DigestMap expected;
  if (!generating) {
    expected = perfbench::parse_digests(read_file(cfg.expected_dir + "/" + cfg.workload + ".txt"));
  }

  // Set up at least three times and for at least half a second, and
  // report the median; the last set-up is the one used.
  std::vector<double> setups;
  const auto t_setup = Clock::now();
  while (setups.size() < 3 || seconds_since(t_setup) < 0.5) {
    setups.push_back(set_up(b, static_cast<int>(setups.size())));
  }
  const double setup_s = perfbench::median(setups);
  const int threads = b.pool->size();

  Tally tally;
  if (!generating && expected.size() != b.queries.size()) {
    tally.fail(std::to_string(expected.size()) + " expected digests for " +
               std::to_string(b.queries.size()) + " queries");
  }
  if (b.cfg.workload == "warm_replay") {
    if (b.fill_counters.writes == 0) tally.fail("set-up wrote no cache entries");
    if (!generating) check_answers(b, b.fill_answers, expected, tally, true);
  }

  // Passes repeat until the time budget is spent (half of it when traced,
  // with at least two untraced passes to compare the traced one against).
  const double budget = cfg.trace == 1 ? cfg.seconds / 2 : cfg.seconds;
  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<double> speedups;
  PassResult last;
  const auto t_measure = Clock::now();
  int pass_index = 0;
  do {
    last = run_pass(b, pass_index++, nullptr);
    walls.push_back(last.wall_s);
    cpus.push_back(last.cpu_s);
    speedups.push_back(catt_speedup_geomean(b, last.answers));
    if (generating) break;
    check_answers(b, last.answers, expected, tally);
    if (cfg.workload == "warm_replay" && last.disk.misses != 0) {
      tally.fail("warm pass missed the disk cache " + std::to_string(last.disk.misses) + " times");
    }
  } while (seconds_since(t_measure) < budget || (cfg.trace == 1 && walls.size() < 2));

  if (generating) {
    perfbench::DigestMap m;
    for (std::size_t i = 0; i < last.answers.size(); ++i) {
      if (last.answers[i].failed) throw std::runtime_error(b.queries[i].id + ": " + last.answers[i].error);
      m[b.queries[i].id] = last.answers[i].digest;
    }
    std::ofstream(cfg.write_digests) << perfbench::format_digests(m);
    std::printf("wrote %zu digests to %s\n", m.size(), cfg.write_digests.c_str());
    return 0;
  }
  if (cfg.reference) {
    std::printf("reference engine: %llu of %llu answers match the expected digests\n",
                static_cast<unsigned long long>(tally.attempted - tally.failed),
                static_cast<unsigned long long>(tally.attempted));
  }

  const double wall_s = perfbench::median(walls);
  const double cpu_s = perfbench::median(cpus);
  const perfbench::Quartiles wq = perfbench::quartiles(walls);
  std::printf("%zu passes: wall q1 %.4f s, median %.4f s, q3 %.4f s; cpu median %.4f s\n",
              walls.size(), wq.q1, wall_s, wq.q3, cpu_s);
  const double speedup = speedups.front();
  for (double s : speedups) {
    if (s != speedup) tally.fail("catt_speedup_geomean changed between passes");
  }

  std::vector<Metric> metrics;
  if (cfg.trace == 1) metrics = traced_run(b, pass_index, walls, wall_s, cpu_s, expected, tally);
  const double error_rate =
      ratio(static_cast<double>(tally.failed), static_cast<double>(tally.attempted));
  if (cfg.trace == 0) {
    metrics = {{"wall_s", wall_s, "s"},
               {"setup_s", setup_s, "s"},
               {"cpu_s", cpu_s, "s"},
               {"peak_rss_mb", peak_rss_mb(), "MB"},
               {"success_rate", 1.0 - error_rate, "ratio"},
               {"catt_speedup_geomean", speedup, "x"}};
  }

  std::string cleared_json;
  for (const std::string& c : cleared) cleared_json += (cleared_json.empty() ? "\"" : ",\"") + c + "\"";
  std::printf("context: {\"workload\":\"%s\",\"seed\":%llu,\"host_cores\":%d,\"pool_threads\":%d,"
              "\"commit\":\"%s\",\"build_type\":\"%s\",\"cleared_env\":[%s],"
              "\"passes\":%zu,\"error_rate\":%s,\"digest_set\":\"%s\","
              "\"model\":\"unvalidated; modelled L1D and L2 start empty for each application run\"}\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed), host_cores(), threads,
              json_escape(cfg.commit).c_str(), PERFBENCH_BUILD_TYPE, cleared_json.c_str(),
              walls.size(), num(error_rate).c_str(),
              perfbench::hex16(digest_set(b, last.answers)).c_str());
  for (const std::string& n : tally.notes) std::printf("failure: %s\n", n.c_str());
  for (const Metric& m : metrics) {
    std::printf("%-28s %16s %s\n", m.name.c_str(), num(m.value).c_str(), m.unit.c_str());
  }

  std::string json = "{\"correct\": " + std::string(tally.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(tally.attempted) +
                     ", \"failed\": " + std::to_string(tally.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  std::filesystem::remove_all(cfg.scratch);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "catt_perfbench: %s\n", e.what());
    return 2;
  }
}
