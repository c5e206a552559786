// cubiebench: the host-cost benchmark of the Cubie suite.
//
//   cubiebench <suite_cold|suite_disk> --seed N --seconds S --trace 0|1
//              --scratch DIR --goldens DIR [--report F] [--spans F]
//              [--corrupt] [--git-sha X] [--source-digest X]
//   cubiebench write-cache DIR SCALE MODEL   (suite_disk's set-up child)
//   cubiebench setup-probe FILE              (suite_cold's set-up child)
//   cubiebench goldens --goldens DIR         (regenerate the goldens)
//   cubiebench list-metrics                  (metric names, units, directions)
//
// Workloads (README.md gives the reasons):
//   suite_cold  Figure-3 suite, scale 4, analytic, fresh engine, 4 jobs
//   suite_disk  Figure-3 suite, scale 16, cachesim, every cell from disk
//
// Everything runs in this one process through the library's public entry
// points. The untraced run (--trace 0) reports the end-to-end metrics. The
// traced run (--trace 1) repeats the same inputs with the same thread
// counts, wraps every call the benchmark makes into a layer's public
// function in a span, and reports the per-layer metrics; side passes after
// it time the layers the suites bypass (a serve daemon after suite_cold, a
// three-worker cluster after suite_disk). Every output is checked; the
// last stdout line is the result object.

#include "harness.hpp"

#include "check/check.hpp"
#include "cluster/merge.hpp"
#include "cluster/router.hpp"
#include "cluster/shard.hpp"
#include "common/perf.hpp"
#include "common/report.hpp"
#include "engine/cache.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "mma/simd.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "sim/model_registry.hpp"
#include "sparse/generators.hpp"
#include "telemetry/telemetry.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <exception>
#include <filesystem>
#include <iostream>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#ifndef CUBIEBENCH_BUILD_TYPE
#define CUBIEBENCH_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace {

using namespace cubie;
namespace cb = cubiebench;
namespace fs = std::filesystem;
using cb::Clock;
using report::Json;

constexpr int kJobs = 4;       // engine pool width of the suite workloads
constexpr int kColdScale = 4;  // runme.sh's default scale
constexpr int kDiskScale = 16;
constexpr const char* kSuiteTitle =
    "Figure 3: performance of Baseline/TC/CC/CC-E across workloads";

// ---------------------------------------------------------------------------
// Metric catalogue: the single source of names, units and directions.

struct MetricDef {
  std::string name, unit, better;
};

std::vector<MetricDef> end_to_end_metrics() {
  return {{"setup_s", "s", "lower"},
          {"suite_wall_s", "s", "lower"},
          {"check_wall_s", "s", "lower"},
          {"peak_rss_mb", "MB", "lower"}};
}

std::vector<MetricDef> per_layer_metrics() {
  std::vector<MetricDef> m = {{"fail_ratio", "ratio", "lower"}};
  engine::ExperimentEngine eng;
  for (const auto& w : eng.suite())
    for (auto v : core::available_variants(*w))
      m.push_back({"core." + w->name() + "." + core::variant_name(v) +
                       ".wall_s",
                   "s", "lower"});
  const std::vector<MetricDef> rest = {
      {"core.compute_s", "s", "lower"},
      {"core.max_cell_s", "s", "lower"},
      {"core.emulated_gflops", "GFLOP/s", "higher"},
      {"core.counted_gflop", "GFLOP", "lower"},
      {"inputs.graph_gen_s", "s", "lower"},
      {"inputs.matrix_gen_s", "s", "lower"},
      {"inputs.unique_gen_s", "s", "lower"},
      {"engine.expand_s", "s", "lower"},
      {"engine.pool_util", "ratio", "higher"},
      {"engine.misses", "count", "lower"},
      {"engine.memo_hits", "count", "higher"},
      {"engine.disk_hits", "count", "higher"},
      {"engine.disk_errors", "count", "lower"},
      {"engine.disk_store_s", "s", "lower"},
      {"engine.disk_store_mb", "MB", "lower"},
      {"engine.disk_load_s", "s", "lower"},
      {"engine.disk_load_mb", "MB", "lower"},
      {"engine.memo_hit_us", "us", "lower"},
      {"sim.predict_calls", "count", "lower"},
      {"sim.analytic_predict_us", "us", "lower"},
      {"sim.cachesim_predict_ms", "ms", "lower"},
      {"sim.pricing_s", "s", "lower"},
      {"report.cell_parse_mbps", "MB/s", "higher"},
      {"report.suite_serialize_ms", "ms", "lower"},
      {"report.suite_parse_ms", "ms", "lower"},
      {"report.suite_bytes", "bytes", "lower"},
      {"check.verify_s", "s", "lower"},
      {"check.reference_s", "s", "lower"},
      {"check.compare_s", "s", "lower"},
      {"check.verdicts", "count", "higher"},
      {"check.violations", "count", "lower"},
      {"serve.setup_s", "s", "lower"},
      {"serve.latency_p50_ms", "ms", "lower"},
      {"serve.latency_p99_ms", "ms", "lower"},
      {"serve.throughput_rps", "1/s", "higher"},
      {"serve.parse_request_us", "us", "lower"},
      {"serve.run_report_us", "us", "lower"},
      {"serve.report_line_us", "us", "lower"},
      {"serve.client_parse_us", "us", "lower"},
      {"serve.residual_us", "us", "lower"},
      {"serve.response_bytes", "bytes", "lower"},
      {"serve.max_queue_depth", "count", "lower"},
      {"serve.cpu_us_per_req", "us", "lower"},
      {"telemetry.events_per_req", "count", "lower"},
      {"telemetry.emit_us", "us", "lower"},
      {"cluster.setup_s", "s", "lower"},
      {"cluster.latency_p50_ms", "ms", "lower"},
      {"cluster.latency_p90_ms", "ms", "lower"},
      {"cluster.throughput_rps", "1/s", "higher"},
      {"cluster.enumerate_ms", "ms", "lower"},
      {"cluster.assign_ms", "ms", "lower"},
      {"cluster.merge_ms", "ms", "lower"},
      {"cluster.shard_rtt_ms", "ms", "lower"},
      {"cluster.failovers", "count", "lower"},
      {"cluster.retries", "count", "lower"},
      {"cluster.modeled_imbalance", "ratio", "lower"},
      {"cluster.host_imbalance", "ratio", "lower"},
      {"trace.suite_wall_s", "s", "lower"},
      {"trace.overhead_ratio", "ratio", "lower"},
      {"trace.unattributed_s", "s", "lower"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

// Layer of a per-layer metric: its prefix before the first '.', or "run"
// for the whole-run metrics.
std::string module_of(const std::string& metric) {
  const auto dot = metric.find('.');
  return dot == std::string::npos ? "run" : metric.substr(0, dot);
}

// ---------------------------------------------------------------------------
// Run context.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool corrupt = false;  // flip one output byte before it is checked
  std::string scratch = ".";
  std::string goldens;
  std::string report_out;
  std::string spans_out;
  std::string git_sha = "none";
  std::string source_digest = "none";
};

// splitmix64: the seeded stream behind request mixes and trace ids.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  std::string trace_id() { return cb::hex64(next() | 1) + cb::hex64(next()); }
};

struct Run {
  explicit Run(const Options& opts)
      : o(opts), rng{opts.seed}, corrupt_pending(opts.corrupt) {
    if (o.trace) log = std::make_unique<cb::SpanLog>();
  }
  const Options& o;
  Rng rng;
  bool corrupt_pending;
  cb::Tally tally;
  std::map<std::string, double> metrics;  // reported values by name
  std::unique_ptr<cb::SpanLog> log;       // traced run only

  cb::SpanLog* spans() { return log.get(); }
  void set(const std::string& name, double v) { metrics[name] = v; }
  // Apply --corrupt to the first output checked (once per run).
  void maybe_corrupt(std::string& bytes, std::size_t from) {
    if (!corrupt_pending) return;
    corrupt_pending = false;
    for (std::size_t i = from + (bytes.size() - from) / 2; i < bytes.size(); ++i)
      if (bytes[i] >= '0' && bytes[i] <= '9') {
        bytes[i] = bytes[i] == '9' ? '8' : static_cast<char>(bytes[i] + 1);
        return;
      }
  }
};

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1e3;
  return 0.0;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// Span statistics by called-function name, over the spans opened at or
// after `since`.
struct SpanStats {
  explicit SpanStats(const std::vector<cb::Span>& all, double since = 0.0) {
    for (const auto& s : all)
      if (s.t0 >= since) spans.push_back(s);
  }
  std::vector<cb::Span> spans;

  std::vector<double> durations(const std::string& name) const {
    std::vector<double> d;
    for (const auto& s : spans)
      if (s.name == name) d.push_back(s.dur());
    return d;
  }
  double sum(const std::string& name) const {
    double t = 0.0;
    for (double d : durations(name)) t += d;
    return t;
  }
  double med(const std::string& name) const { return cb::median(durations(name)); }
  // Wall of [t0, t1] that no root span covers.
  double unattributed(double t0, double t1) const {
    std::vector<std::pair<double, double>> iv;
    for (const auto& s : spans)
      if (s.parent < 0 && s.t0 >= t0 && s.t1 <= t1) iv.emplace_back(s.t0, s.t1);
    return (t1 - t0) - cb::union_length(iv);
  }
};

// ---------------------------------------------------------------------------
// Live daemons on threads of this process.

struct LiveServer {
  explicit LiveServer(serve::ServerOptions opts) : server(std::move(opts)) {
    std::string err;
    if (!server.start(&err)) throw std::runtime_error("serve: " + err);
    thread = std::thread([this] { server.serve(); });
  }
  ~LiveServer() {
    server.request_shutdown();
    thread.join();
  }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;
  serve::Server server;
  std::thread thread;
};

struct LiveRouter {
  explicit LiveRouter(cluster::RouterOptions opts) : router(std::move(opts)) {
    std::string err;
    if (!router.start(&err)) throw std::runtime_error("cluster: " + err);
    thread = std::thread([this] { router.serve(); });
  }
  ~LiveRouter() {
    router.request_shutdown();
    thread.join();
  }
  LiveRouter(const LiveRouter&) = delete;
  LiveRouter& operator=(const LiveRouter&) = delete;
  cluster::Router router;
  std::thread thread;
};

serve::Client connect_to(const std::string& socket) {
  std::string err;
  auto c = serve::Client::connect({socket, -1}, &err);
  if (!c) throw std::runtime_error("connect " + socket + ": " + err);
  return std::move(*c);
}

// The envelope a successful report response starts with (protocol.cpp's
// field order), up to and including the "report" key.
std::string ok_prefix(const std::string& id, const std::string& trace) {
  return "{\"id\":\"" + id + "\",\"ok\":true,\"protocol_version\":" +
         std::to_string(serve::kProtocolVersion) + ",\"trace\":\"" + trace +
         "\",\"report\":";
}

// The report member of a response line, or "" when the envelope is not
// the expected successful one for (id, trace).
std::string report_of(const std::string& line, const std::string& id,
                      const std::string& trace) {
  const std::string prefix = ok_prefix(id, trace);
  const auto end = line.rfind(",\"engine\":{");
  if (line.compare(0, prefix.size(), prefix) != 0 || end == std::string::npos ||
      end < prefix.size())
    return {};
  return line.substr(prefix.size(), end - prefix.size());
}

// One send -> full reply line exchange (Client::call minus its parse, so
// the raw bytes stay available for the byte-identity check).
std::string round_trip(serve::Client& c, const std::string& line) {
  std::optional<std::string> reply;
  if (c.send_line(line)) reply = c.recv_line();
  return reply ? *reply : std::string();
}

report::Json call_json(serve::Client& c, const serve::Request& r) {
  std::string err;
  auto j = c.call(r, &err);
  if (!j) throw std::runtime_error("request failed: " + err);
  return *j;
}

double json_num(const Json* j, const char* key) {
  const Json* v = j ? j->find(key) : nullptr;
  return v && v->is_number() ? v->as_number() : 0.0;
}

// Counts bus events while installed (telemetry.events_per_req).
struct CountingSink : telemetry::Sink {
  std::atomic<std::uint64_t> n{0};
  void on_event(const telemetry::Event&) override { ++n; }
};

// Mean cost of one bus emit with the currently installed sinks.
double emit_us() {
  constexpr int kEmits = 2000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kEmits; ++i) {
    telemetry::Event e;
    e.kind = telemetry::EventKind::SpanOpen;
    e.name = "cubiebench.emit_probe";
    telemetry::bus().emit(std::move(e));
  }
  return cb::seconds_between(t0, Clock::now()) / kEmits * 1e6;
}

// ---------------------------------------------------------------------------
// Suite workloads.

struct SuiteSpec {
  int scale;
  std::string model;
  bool disk;
};

std::string verdict_digest(const std::vector<check::Verdict>& vs) {
  std::vector<std::string> rows;
  for (const auto& v : vs) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "|%zu|%a|%a|%a|%zu|%d", v.n, v.max_abs_err,
                  v.max_rel_err, v.max_ulp, v.violations, v.pass ? 1 : 0);
    rows.push_back(v.key() + buf);
  }
  std::sort(rows.begin(), rows.end());
  std::string all;
  for (const auto& r : rows) all += r + '\n';
  return cb::digest(all);
}

struct SuiteOutput {
  std::string bytes;  // the serialized Figure-3 report
  std::vector<check::Verdict> verdicts;
  double suite_s = 0.0, check_s = 0.0;
  double pool_s = 0.0;  // traced: wall of the cell pool
  engine::EngineCounters counters;
};

SuiteOutput suite_op(engine::ExperimentEngine& eng, const SuiteSpec& s) {
  SuiteOutput r;
  const auto t0 = Clock::now();
  r.bytes = serve::suite_report(eng, s.scale, s.model).to_json().dump(-1);
  const auto t1 = Clock::now();
  r.verdicts = check::verify_report(eng).verdicts;
  r.check_s = cb::seconds_between(t1, Clock::now());
  r.suite_s = cb::seconds_between(t0, t1);
  r.counters = eng.counters();
  return r;
}

// The same operation, rebuilt outside-in from the layers' public calls so
// each one is a span: engine expansion, one ExperimentEngine::run per cell
// on a kJobs-wide pool (ExperimentEngine::execute's schedule), pricing
// (serve::add_suite_perf_records' loop), serialization, and
// check::verify_cells' comparisons.
SuiteOutput suite_op_traced(engine::ExperimentEngine& eng, const SuiteSpec& s,
                            cb::SpanLog* log) {
  SuiteOutput r;
  const auto t0 = Clock::now();
  std::vector<engine::Cell> cells;
  {
    cb::Scope sp(log, "engine", "ExperimentEngine::expand");
    cells = eng.expand(engine::Plan::suite(s.scale));
  }
  const std::string cell_module = s.disk ? "engine" : "core";
  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::exception_ptr err;
  const int parent = cb::tl_parent;
  const std::string trace = cb::tl_trace;
  const auto tp0 = Clock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < kJobs; ++t)
    pool.emplace_back([&] {
      cb::ThreadContext ctx(parent, trace);
      for (std::size_t i; (i = next.fetch_add(1)) < cells.size();) {
        const auto& c = cells[i];
        try {
          cb::Scope sp(log, cell_module, "ExperimentEngine::run",
                       c.workload->name() + "|" +
                           core::variant_name(c.variant) + "|" +
                           c.test_case.label);
          eng.run(*c.workload, c.variant, c.test_case, c.scale);
        } catch (...) {
          std::lock_guard<std::mutex> lk(err_mu);
          if (!err) err = std::current_exception();
          next.store(cells.size());
        }
      }
    });
  for (auto& t : pool) t.join();
  if (err) std::rethrow_exception(err);
  r.pool_s = cb::seconds_between(tp0, Clock::now());

  report::MetricsReport rep;
  rep.tool = "fig03_perf";
  rep.title = kSuiteTitle;
  rep.scale_divisor = s.scale;
  for (const auto& w : eng.suite()) {
    const auto variants = core::available_variants(*w);
    const auto cases = w->cases(s.scale);
    for (auto gpu : sim::all_gpus()) {
      const auto model = sim::make_device_model(s.model, sim::spec_for(gpu));
      for (const auto& tc : cases)
        for (auto v : variants) {
          const auto& out = eng.run(*w, v, tc, s.scale);
          sim::Prediction pred;
          {
            cb::Scope sp(log, "sim", "DeviceModel::predict");
            pred = model->predict(out.profile);
          }
          auto& rec = rep.add_record(w->name(), core::variant_name(v),
                                     sim::gpu_name(gpu), tc.label);
          rec.set(perf::perf_metric_name(*w),
                  perf::perf_metric(*w, out.profile, pred.time_s) / 1e9);
          rec.set("time_ms", pred.time_s * 1e3);
          rec.set("dram_bytes", out.profile.dram_bytes);
          rec.set("useful_flops", out.profile.useful_flops);
          rec.set("launches", out.profile.launches);
        }
    }
  }
  {
    cb::Scope sp(log, "report", "MetricsReport::to_json");
    r.bytes = rep.to_json().dump(-1);
  }
  const auto t1 = Clock::now();

  {
    cb::Scope sp(log, "check", "check::verify_cells");
    // Group the materialized cells by (workload, case, scale) in first-seen
    // order, exactly like check::verify_cells.
    struct Group {
      const core::Workload* w = nullptr;
      core::TestCase tc;
      int scale = 1;
      std::vector<core::Variant> variants;
    };
    std::vector<Group> groups;
    std::map<std::string, std::size_t> index;
    for (const auto& m : eng.materialized()) {
      const core::Workload* w = eng.workload(m.workload);
      const std::string gk =
          engine::cell_key(m.workload, core::Variant::TC, m.test_case, m.scale);
      auto [it, fresh] = index.try_emplace(gk, groups.size());
      if (fresh) groups.push_back({w, m.test_case, m.scale, {}});
      auto& vs = groups[it->second].variants;
      if (std::find(vs.begin(), vs.end(), m.variant) == vs.end())
        vs.push_back(m.variant);
    }
    for (const auto& g : groups) {
      const auto tol = check::tolerance_for(*g.w);
      std::vector<double> ref;
      std::string ref_name = "Baseline";
      if (g.w->has_baseline()) {
        ref = eng.run(*g.w, core::Variant::Baseline, g.tc, g.scale).values;
      } else {
        cb::Scope sp(log, "check", "Workload::reference", g.w->name());
        ref = g.w->reference(g.tc);
        ref_name = "CPU-serial";
      }
      auto judge = [&](core::Variant v, const std::vector<double>& out,
                       const std::vector<double>& target,
                       const std::string& target_name,
                       const check::Tolerance& t) {
        check::Verdict vd;
        {
          cb::Scope sp(log, "check", "compare_values");
          vd = check::compare_values(out, target, t);
        }
        vd.workload = g.w->name();
        vd.variant = core::variant_name(v);
        vd.reference = target_name;
        vd.case_label = g.tc.label;
        vd.scale = g.scale;
        r.verdicts.push_back(std::move(vd));
      };
      // Outputs are copied before judging, as check::verify_cells does.
      auto values = [&](core::Variant v) {
        return eng.run(*g.w, v, g.tc, g.scale).values;
      };
      for (auto v : g.variants)
        if (v != core::Variant::Baseline) judge(v, values(v), ref, ref_name, tol);
      auto has = [&](core::Variant v) {
        return std::find(g.variants.begin(), g.variants.end(), v) !=
               g.variants.end();
      };
      if (has(core::Variant::TC) && has(core::Variant::CC))
        judge(core::Variant::CC, values(core::Variant::CC),
              values(core::Variant::TC), "TC", check::exact_tolerance());
    }
  }
  r.check_s = cb::seconds_between(t1, Clock::now());
  r.suite_s = cb::seconds_between(t0, t1);
  r.counters = eng.counters();
  return r;
}

// Judge one suite operation against its golden and the engine counters.
void check_suite_output(Run& run, SuiteOutput& out, const cb::Golden& g,
                        const SuiteSpec& s) {
  run.maybe_corrupt(out.bytes, out.bytes.find("\"records\""));
  const std::size_t bad_records = cb::check_report_bytes(out.bytes, g);
  run.tally.add(true, g.records.size() - std::min(bad_records, g.records.size()));
  run.tally.add(false, bad_records);
  std::size_t violations = 0;
  for (const auto& v : out.verdicts)
    if (!v.pass) ++violations;
  const bool verdicts_ok = out.verdicts.size() == g.verdicts &&
                           violations == g.violations &&
                           verdict_digest(out.verdicts) == g.verdict_digest;
  run.tally.add(verdicts_ok, std::max<std::size_t>(out.verdicts.size(), 1));
  const auto& c = out.counters;
  const bool counters_ok =
      s.disk ? (c.disk_hits == g.cells && c.misses == 0 && c.disk_errors == 0)
             : (c.misses == g.cells && c.disk_hits == 0);
  run.tally.add(counters_ok);
  if (bad_records || !verdicts_ok || !counters_ok)
    std::cerr << "cubiebench: suite output mismatch: " << bad_records
              << " record(s), verdicts " << (verdicts_ok ? "ok" : "differ")
              << ", counters misses=" << c.misses << " disk_hits=" << c.disk_hits
              << " disk_errors=" << c.disk_errors << "\n";
}

// Run this same binary with `args` and wait; returns its wall seconds.
double spawn_self(std::vector<std::string> args) {
  const std::string self = fs::read_symlink("/proc/self/exe").string();
  args.insert(args.begin(), self);
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const auto t0 = Clock::now();
  pid_t pid = 0;
  if (posix_spawn(&pid, self.c_str(), nullptr, nullptr, argv.data(),
                  environ) != 0)
    throw std::runtime_error("cannot spawn " + args[1]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0)
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error(args[1] + " failed");
  return cb::seconds_between(t0, Clock::now());
}

// suite_disk's set-up child: a cold run writing every cell of the plan into
// a fresh cache directory.

int write_cache(const std::string& dir, int scale, const std::string& model) {
  engine::ExperimentEngine eng({kJobs, dir, model});
  eng.execute(engine::Plan::suite(scale));
  return eng.counters().disk_errors == 0 ? 0 : 1;
}

// suite_cold's set-up child: engine construction, its registry suite and
// the plan's cells, median of 51, written to `path`.
int setup_probe(const std::string& path) {
  std::vector<double> samples;
  for (int i = 0; i < 51; ++i) {
    const auto t0 = Clock::now();
    engine::ExperimentEngine eng({kJobs, "", "analytic"});
    eng.expand(engine::Plan::suite(kColdScale));
    samples.push_back(cb::seconds_between(t0, Clock::now()));
  }
  std::ofstream out(path);
  out << Json::number(cb::median(samples)).dump(-1) << "\n";
  return out ? 0 : 1;
}

// Time each dataset the BFS/SpMV/SpGEMM cells build, with the arguments
// each workload passes. A cell builds its dataset once per run, so a
// dataset's time is weighted by the number of cells (variants) using it.
void time_input_generators(Run& run, engine::ExperimentEngine& eng, int scale) {
  cb::SpanLog* log = run.spans();
  double graph_s = 0.0, matrix_s = 0.0, unique_s = 0.0;
  for (const auto& w : eng.suite()) {
    const std::string name = w->name();
    if (name != "BFS" && name != "SpMV" && name != "SpGEMM") continue;
    const double uses = static_cast<double>(core::available_variants(*w).size());
    for (const auto& tc : w->cases(scale)) {
      const auto t0 = Clock::now();
      if (name == "BFS") {
        cb::Scope sp(log, "inputs", "graph::make_table3_graph", tc.dataset);
        graph::make_table3_graph(tc.dataset, static_cast<int>(tc.dims[0]));
      } else {
        const int arg = static_cast<int>(tc.dims[0]) * (name == "SpGEMM" ? 2 : 1);
        cb::Scope sp(log, "inputs", "sparse::make_table4_matrix", tc.dataset);
        sparse::make_table4_matrix(tc.dataset, arg);
      }
      const double dt = cb::seconds_between(t0, Clock::now());
      unique_s += dt;
      (name == "BFS" ? graph_s : matrix_s) += dt * uses;
    }
  }
  run.set("inputs.graph_gen_s", graph_s);
  run.set("inputs.matrix_gen_s", matrix_s);
  run.set("inputs.unique_gen_s", unique_s);
}

// Json::parse throughput over a quarter of the cache's cell files (file
// reads excluded), and DiskCache::load over the same files, on kJobs
// threads.
void time_cell_parse(Run& run, const std::vector<std::string>& keys,
                     const engine::DiskCache& cache) {
  cb::SpanLog* log = run.spans();
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  double bytes = 0.0, parse_s = 0.0;
  std::vector<std::thread> pool;
  for (int t = 0; t < kJobs; ++t)
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(4)) < keys.size();) {
        std::ifstream in(cache.path_for(keys[i]), std::ios::binary);
        std::stringstream ss;
        ss << in.rdbuf();
        const std::string text = ss.str();
        const auto t0 = Clock::now();
        {
          cb::Scope sp(log, "report", "Json::parse", keys[i]);
          Json::parse(text);
        }
        const double dt = cb::seconds_between(t0, Clock::now());
        {
          cb::Scope sp(log, "engine", "DiskCache::load", keys[i]);
          cache.load(keys[i]);
        }
        std::lock_guard<std::mutex> lk(mu);
        bytes += static_cast<double>(text.size());
        parse_s += dt;
      }
    });
  for (auto& t : pool) t.join();
  run.set("report.cell_parse_mbps", parse_s > 0 ? bytes / 1e6 / parse_s : 0.0);
}

// Write back every file of `dir`, so the set-up's dirty pages are not
// flushed underneath the timed reads that follow.
void flush_dir(const std::string& dir) {
  for (const auto& e : fs::directory_iterator(dir)) {
    const int fd = ::open(e.path().c_str(), O_RDONLY);
    if (fd < 0) throw std::runtime_error("cannot open " + e.path().string());
    const int rc = ::fdatasync(fd);
    ::close(fd);
    if (rc != 0) throw std::runtime_error("cannot flush " + e.path().string());
  }
}

void suite_workload(Run& run, const SuiteSpec& s, const cb::Golden& g) {
  const Options& o = run.o;
  const std::string cache_dir = s.disk ? (fs::path(o.scratch) / "cells").string() : "";
  const engine::EngineOptions eopts{kJobs, cache_dir, s.model};
  cb::SpanLog* log = run.spans();
  double setup_s = 0.0;
  if (!s.disk && !log) {
    // About 0.1 ms that moves with where a process lands on the host, so
    // nine child processes each time it and the median child counts.
    std::vector<double> probes;
    for (int i = 0; i < 9; ++i) {
      const std::string path =
          (fs::path(o.scratch) / ("setup-probe-" + std::to_string(i))).string();
      spawn_self({"setup-probe", path});
      std::ifstream in(path);
      double v = 0.0;
      if (!(in >> v)) throw std::runtime_error("setup-probe wrote no result");
      probes.push_back(v);
    }
    setup_s = cb::median(probes);
  } else if (s.disk && !log) {
    setup_s = spawn_self({"write-cache", cache_dir, std::to_string(s.scale), s.model});
  } else if (s.disk) {
    // Traced set-up writes the same files outside-in: a cold engine without
    // a cache, then one DiskCache::store per cell on kJobs threads.
    engine::ExperimentEngine cold({kJobs, "", s.model});
    cold.execute(engine::Plan::suite(s.scale));
    const engine::DiskCache cache(cache_dir);
    const auto cells = cold.materialized();
    std::atomic<std::size_t> next{0};
    std::atomic<int> failed{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < kJobs; ++t)
      pool.emplace_back([&] {
        for (std::size_t i; (i = next.fetch_add(1)) < cells.size();) {
          const auto& m = cells[i];
          const auto& out = cold.run(*cold.workload(m.workload), m.variant,
                                     m.test_case, m.scale);
          cb::Scope sp(log, "engine", "DiskCache::store", m.key);
          if (!cache.store(m.key, out).ok()) ++failed;
        }
      });
    for (auto& t : pool) t.join();
    if (failed) throw std::runtime_error("cannot store the cell cache");
    double mb = 0.0;
    for (const auto& m : cells)
      mb += static_cast<double>(fs::file_size(cache.path_for(m.key))) / 1e6;
    run.set("engine.disk_store_mb", mb);
  }
  if (s.disk) flush_dir(cache_dir);

  // Every operation starts from a fresh engine, and freed memory goes back
  // to the OS first, so each pays the same page faults.
  auto fresh = [&]() {
    malloc_trim(0);
    return std::make_unique<engine::ExperimentEngine>(eopts);
  };

  if (!log) {
    // Whole suites until --seconds have passed (at least one).
    std::vector<double> suite_s, check_s;
    const auto w0 = Clock::now();
    do {
      auto eng = fresh();
      SuiteOutput out = suite_op(*eng, s);
      check_suite_output(run, out, g, s);
      suite_s.push_back(out.suite_s);
      check_s.push_back(out.check_s);
    } while (cb::seconds_between(w0, Clock::now()) < o.seconds);
    run.set("setup_s", setup_s);
    run.set("suite_wall_s", cb::median(suite_s));
    run.set("check_wall_s", cb::median(check_s));
    run.set("peak_rss_mb", peak_rss_mb());
    return;
  }

  // Traced: a first untraced operation warms the process, the second runs
  // traced, and a third, untraced again, is the overhead baseline.
  auto untraced_op = [&]() {
    auto eng = fresh();
    SuiteOutput out = suite_op(*eng, s);
    check_suite_output(run, out, g, s);
    return out.suite_s + out.check_s;
  };
  untraced_op();
  SuiteOutput out;
  double t_begin = 0.0, t_end = 0.0, all_flops = 0.0, mma_flops = 0.0;
  std::vector<std::string> keys;
  {
    auto eng = fresh();
    cb::ThreadContext ctx(-1, run.rng.trace_id());
    t_begin = log->now();
    out = suite_op_traced(*eng, s, log);
    t_end = log->now();
    check_suite_output(run, out, g, s);
    for (const auto& c : eng->expand(engine::Plan::suite(s.scale))) {
      const auto& p = eng->run(*c.workload, c.variant, c.test_case, c.scale).profile;
      all_flops += p.tc_flops + p.cc_flops;
      if (c.variant != core::Variant::Baseline) mma_flops += p.tc_flops + p.cc_flops;
      keys.push_back(c.key);
    }
  }
  const double untraced_s = untraced_op();

  // Side passes, outside the traced wall.
  if (s.disk) {
    const engine::DiskCache cache(cache_dir);
    time_cell_parse(run, keys, cache);
    double mb = 0.0;
    for (const auto& k : keys)
      mb += static_cast<double>(fs::file_size(cache.path_for(k))) / 1e6;
    run.set("engine.disk_load_mb", mb);
  } else {
    engine::ExperimentEngine registry;
    time_input_generators(run, registry, s.scale);
  }

  const SpanStats st{log->spans()};
  const double pool_wall = out.pool_s;
  double cells_s = 0.0, max_cell = 0.0, mma_s = 0.0;
  std::map<std::string, double> per_pair;
  for (const auto& sp : st.spans) {
    if (sp.name != "ExperimentEngine::run") continue;
    cells_s += sp.dur();
    max_cell = std::max(max_cell, sp.dur());
    if (sp.tag.find("|Baseline|") == std::string::npos) mma_s += sp.dur();
    const auto bar = sp.tag.find('|');
    const auto bar2 = sp.tag.find('|', bar + 1);
    per_pair["core." + sp.tag.substr(0, bar) + "." +
             sp.tag.substr(bar + 1, bar2 - bar - 1) + ".wall_s"] += sp.dur();
  }
  if (!s.disk) {
    for (const auto& [k, v] : per_pair) run.set(k, v);
    run.set("core.compute_s", cells_s);
    run.set("core.max_cell_s", max_cell);
    run.set("core.emulated_gflops", mma_s > 0 ? mma_flops / mma_s / 1e9 : 0.0);
  } else {
    // The suite blocks on the whole load phase: report its wall.
    run.set("engine.disk_load_s", pool_wall);
    run.set("engine.disk_store_s", st.sum("DiskCache::store"));
  }
  run.set("core.counted_gflop", all_flops / 1e9);
  run.set("trace.suite_wall_s", out.suite_s);
  run.set("engine.expand_s", st.sum("ExperimentEngine::expand"));
  run.set("engine.pool_util", pool_wall > 0 ? cells_s / (kJobs * pool_wall) : 0.0);
  const auto c = out.counters;
  run.set("engine.misses", static_cast<double>(c.misses));
  run.set("engine.memo_hits", static_cast<double>(c.memo_hits));
  run.set("engine.disk_hits", static_cast<double>(c.disk_hits));
  run.set("engine.disk_errors", static_cast<double>(c.disk_errors));
  const auto predicts = st.durations("DeviceModel::predict");
  run.set("sim.predict_calls", static_cast<double>(predicts.size()));
  run.set(s.model == "analytic" ? "sim.analytic_predict_us"
                                : "sim.cachesim_predict_ms",
          cb::median(predicts) * (s.model == "analytic" ? 1e6 : 1e3));
  run.set("sim.pricing_s", st.sum("DeviceModel::predict"));
  run.set("report.suite_serialize_ms", st.sum("MetricsReport::to_json") * 1e3);
  run.set("report.suite_bytes", static_cast<double>(out.bytes.size()));
  run.set("check.verify_s", out.check_s);
  run.set("check.reference_s", st.sum("Workload::reference"));
  run.set("check.compare_s", st.sum("compare_values"));
  run.set("check.verdicts", static_cast<double>(out.verdicts.size()));
  std::size_t violations = 0;
  for (const auto& v : out.verdicts) violations += v.pass ? 0 : 1;
  run.set("check.violations", static_cast<double>(violations));
  run.set("trace.overhead_ratio", (out.suite_s + out.check_s) / untraced_s);
  run.set("trace.unattributed_s", st.unattributed(t_begin, t_end));
}

// ---------------------------------------------------------------------------
// Side passes of the traced runs, outside the traced suite wall: a warm
// serve daemon (after suite_cold) and a three-worker cluster (after
// suite_disk). Their latencies follow host CPU steal far more than the
// suites do (README.md), so they are per-layer metrics, not gated ones.
// Each window runs untraced first, then with spans.

constexpr int kServeScale = 16;

struct Mix {
  std::vector<std::string> workloads;
  std::vector<std::vector<std::string>> variants;  // "all" + available
  std::vector<std::string> gpus = {"all", "A100", "H200", "B200"};

  explicit Mix(engine::ExperimentEngine& eng) {
    for (const auto& w : eng.suite()) {
      workloads.push_back(w->name());
      std::vector<std::string> vs = {"all"};
      for (auto v : core::available_variants(*w))
        vs.push_back(core::variant_name(v));
      variants.push_back(std::move(vs));
    }
  }
  serve::RunSpec draw(Rng& rng) const {
    serve::RunSpec s;
    const std::size_t w = rng.below(workloads.size());
    s.workload = workloads[w];
    s.variant = variants[w][rng.below(variants[w].size())];
    s.gpu = gpus[rng.below(gpus.size())];
    s.scale = kServeScale;
    return s;
  }
};

struct Window {
  std::vector<double> lat_ms;
  std::uint64_t ok = 0, bad = 0;
  double bytes = 0.0;
  double wall_s = 0.0;
};

struct Outcome {
  double ms = 0.0;
  bool ok = false;
  double bytes = 0.0;
};

// Drive `conns` closed-loop connections until `seconds` have passed; `one`
// performs request n on connection c.
template <class F>
Window closed_loop(int conns, double seconds, F one) {
  std::vector<Window> per(static_cast<std::size_t>(conns));
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(seconds);
  std::vector<std::thread> threads;
  std::mutex err_mu;
  std::exception_ptr err;
  for (int c = 0; c < conns; ++c)
    threads.emplace_back([&, c] {
      try {
        auto& w = per[static_cast<std::size_t>(c)];
        for (std::uint64_t n = 0; Clock::now() < deadline; ++n) {
          const Outcome r = one(c, n);
          (r.ok ? w.ok : w.bad) += 1;
          if (r.ok) w.lat_ms.push_back(r.ms);
          w.bytes += r.bytes;
        }
      } catch (...) {
        std::lock_guard<std::mutex> lk(err_mu);
        if (!err) err = std::current_exception();
      }
    });
  for (auto& t : threads) t.join();
  if (err) std::rethrow_exception(err);
  Window all;
  all.wall_s = cb::seconds_between(t0, Clock::now());
  for (auto& w : per) {
    all.lat_ms.insert(all.lat_ms.end(), w.lat_ms.begin(), w.lat_ms.end());
    all.ok += w.ok;
    all.bad += w.bad;
    all.bytes += w.bytes;
  }
  return all;
}

// A daemon with 2 workers, warmed on every workload's representative case
// (scale 16, analytic), then 2 closed-loop connections of seeded `run`
// requests, every cell a memo hit.
void serve_side_pass(Run& run, double seconds) {
  constexpr int kConns = 2;
  cb::SpanLog* log = run.spans();
  const auto t0 = Clock::now();
  serve::ServerOptions so;
  so.socket_path = "serve.sock";
  so.workers = 2;
  LiveServer live(so);
  engine::ExperimentEngine& eng = live.server.engine();
  const Mix mix(eng);
  std::vector<std::string> warm(mix.workloads.size());
  {
    auto client = connect_to(so.socket_path);
    for (std::size_t w = 0; w < warm.size(); ++w) {
      serve::Request r;
      r.id = "warm-" + std::to_string(w);
      r.cmd = serve::Cmd::Run;
      r.spec.workload = mix.workloads[w];
      r.spec.gpu = "all";
      r.spec.scale = kServeScale;
      r.trace = run.rng.trace_id();
      warm[w] = report_of(round_trip(client, serve::request_to_json(r).dump(-1)),
                          r.id, r.trace);
    }
  }
  run.set("serve.setup_s", cb::seconds_between(t0, Clock::now()));

  // Direct references: serve::run_report of every spec the mix can draw.
  std::map<std::string, std::string> refs;
  for (std::size_t w = 0; w < mix.workloads.size(); ++w)
    for (const auto& v : mix.variants[w])
      for (const auto& gpu : mix.gpus) {
        serve::RunSpec s;
        s.workload = mix.workloads[w];
        s.variant = v;
        s.gpu = gpu;
        s.scale = kServeScale;
        std::string err;
        const auto rep = serve::run_report(eng, s, &err);
        if (!rep) throw std::runtime_error("run_report: " + err);
        refs[serve::spec_key(s)] = rep->to_json().dump(-1);
      }
  for (std::size_t w = 0; w < warm.size(); ++w) {
    serve::RunSpec s;
    s.workload = mix.workloads[w];
    s.gpu = "all";
    s.scale = kServeScale;
    run.tally.add(warm[w] == refs.at(serve::spec_key(s)));
  }

  std::vector<serve::Client> clients;
  std::vector<Rng> rngs;
  for (int c = 0; c < kConns; ++c) {
    clients.push_back(connect_to(so.socket_path));
    rngs.push_back(Rng{run.rng.next()});
  }
  std::mutex verify_mu;  // maybe_corrupt touches shared run state
  auto request = [&](int c, const std::string& id) {
    serve::Request r;
    r.id = id;
    r.cmd = serve::Cmd::Run;
    r.spec = mix.draw(rngs[static_cast<std::size_t>(c)]);
    r.trace = rngs[static_cast<std::size_t>(c)].trace_id();
    return r;
  };
  auto verify = [&](const serve::Request& r, std::string& reply) {
    std::lock_guard<std::mutex> lk(verify_mu);
    run.maybe_corrupt(reply, ok_prefix(r.id, r.trace).size());
    return report_of(reply, r.id, r.trace) == refs.at(serve::spec_key(r.spec));
  };

  const auto before = eng.counters();
  auto counter = std::make_shared<CountingSink>();
  telemetry::bus().add_sink(counter);
  const double cpu0 = cpu_seconds();
  const Window win = closed_loop(kConns, seconds, [&](int c, std::uint64_t n) {
    const serve::Request r = request(c, "u" + std::to_string(c) + "-" + std::to_string(n));
    const std::string line = serve::request_to_json(r).dump(-1);
    const auto s0 = Clock::now();
    std::string reply = round_trip(clients[static_cast<std::size_t>(c)], line);
    const double ms = cb::seconds_between(s0, Clock::now()) * 1e3;
    return Outcome{ms, verify(r, reply), static_cast<double>(reply.size())};
  });
  const double cpu_s = cpu_seconds() - cpu0;
  telemetry::bus().remove_sink(counter.get());
  const auto sstats = live.server.stats();
  run.tally.add(true, win.ok);
  run.tally.add(false, win.bad);
  run.tally.add(eng.counters().misses == before.misses);
  run.tally.add(sstats.rejected_overloaded + sstats.rejected_deadline +
                    sstats.rejected_shutdown + sstats.bad_requests == 0);
  const double done = std::max(1.0, static_cast<double>(win.ok));
  run.set("serve.latency_p50_ms", cb::median(win.lat_ms));
  run.set("serve.latency_p99_ms", cb::percentile(win.lat_ms, 99).value_or(0.0));
  run.set("serve.throughput_rps", static_cast<double>(win.ok) / win.wall_s);
  run.set("serve.response_bytes", win.bytes / std::max<double>(1.0, win.ok + win.bad));
  run.set("serve.max_queue_depth", static_cast<double>(sstats.max_queue_depth));
  run.set("serve.cpu_us_per_req", cpu_s / done * 1e6);
  run.set("telemetry.events_per_req", static_cast<double>(counter->n) / done);

  // Traced window: the round trip, then the daemon's in-process layers
  // called directly on the same request.
  const double t_begin = log->now();
  const Window tw = closed_loop(kConns, seconds, [&](int c, std::uint64_t n) {
    const serve::Request r = request(c, "t" + std::to_string(c) + "-" + std::to_string(n));
    cb::ThreadContext ctx(-1, r.trace);
    const std::string line = serve::request_to_json(r).dump(-1);
    std::string reply;
    const auto s0 = Clock::now();
    {
      cb::Scope sp(log, "serve", "Client::call");
      reply = round_trip(clients[static_cast<std::size_t>(c)], line);
      cb::Scope pp(log, "serve", "Json::parse");
      Json::parse(reply);
    }
    const double ms = cb::seconds_between(s0, Clock::now()) * 1e3;
    const bool ok = verify(r, reply);
    {
      cb::Scope sp(log, "serve", "serve::parse_request");
      serve::parse_request(line, nullptr);
    }
    std::optional<report::MetricsReport> rep;
    {
      cb::Scope sp(log, "serve", "serve::run_report");
      rep = serve::run_report(eng, r.spec, nullptr);
    }
    if (rep) {
      cb::Scope sp(log, "serve", "serve::report_line");
      serve::report_line(r.id, *rep, eng.stats(), std::nullopt, r.trace);
    }
    const core::Workload* w = eng.workload(r.spec.workload);
    {
      cb::Scope sp(log, "engine", "ExperimentEngine::run", "memo");
      eng.run(*w, core::available_variants(*w).front(),
              w->cases(kServeScale)[w->representative_case()], kServeScale);
    }
    return Outcome{ms, ok, static_cast<double>(reply.size())};
  });
  run.tally.add(true, tw.ok);
  run.tally.add(false, tw.bad);
  run.set("telemetry.emit_us", emit_us());

  const SpanStats st{log->spans(), t_begin};
  const double parse = st.med("serve::parse_request") * 1e6;
  const double report = st.med("serve::run_report") * 1e6;
  const double line = st.med("serve::report_line") * 1e6;
  const double cparse = st.med("Json::parse") * 1e6;
  run.set("serve.parse_request_us", parse);
  run.set("serve.run_report_us", report);
  run.set("serve.report_line_us", line);
  run.set("serve.client_parse_us", cparse);
  run.set("serve.residual_us",
          st.med("Client::call") * 1e6 - (parse + report + line + cparse));
  run.set("engine.memo_hit_us", st.med("ExperimentEngine::run") * 1e6);
}

// A router over three workers (jobs 1 each) sharing one disk cache; the
// first, cold suite request is sharded across them, then one closed-loop
// connection sends scale-16 `suite` requests.
constexpr int kClusterScale = 16;
constexpr int kClusterWorkers = 3;

void cluster_side_pass(Run& run, const cb::Golden& g, double seconds) {
  const Options& o = run.o;
  cb::SpanLog* log = run.spans();
  const std::string cache = (fs::path(o.scratch) / "shared-cells").string();
  fs::create_directories(cache);

  auto suite_request = [&](const std::string& id) {
    serve::Request r;
    r.id = id;
    r.cmd = serve::Cmd::Suite;
    r.spec.scale = kClusterScale;
    r.trace = run.rng.trace_id();
    return r;
  };
  auto verify = [&](const serve::Request& r, std::string& reply) {
    run.maybe_corrupt(reply, ok_prefix(r.id, r.trace).size());
    const std::string rep = report_of(reply, r.id, r.trace);
    return !rep.empty() && cb::digest(rep) == g.report;
  };

  const auto t0 = Clock::now();
  std::vector<std::unique_ptr<LiveServer>> workers;
  cluster::RouterOptions ro;
  ro.socket_path = "router.sock";
  std::vector<std::string> names;
  for (int i = 0; i < kClusterWorkers; ++i) {
    serve::ServerOptions so;
    so.socket_path = "w" + std::to_string(i) + ".sock";
    so.engine.jobs = 1;
    so.engine.cache_dir = cache;
    workers.push_back(std::make_unique<LiveServer>(so));
    names.push_back("w" + std::to_string(i));
    ro.workers.push_back({names.back(), {so.socket_path, -1}});
  }
  LiveRouter router(ro);
  auto client = connect_to(ro.socket_path);
  {
    const serve::Request r = suite_request("cold");
    std::string reply = round_trip(client, serve::request_to_json(r).dump(-1));
    run.tally.add(verify(r, reply));
  }
  run.set("cluster.setup_s", cb::seconds_between(t0, Clock::now()));

  // Engine counters of every worker, through `stats`.
  auto worker_engines = [&]() {
    std::vector<Json> out;
    for (const auto& name : names) {
      auto c = connect_to(name + ".sock");
      serve::Request r;
      r.id = "stats";
      r.cmd = serve::Cmd::Stats;
      const Json resp = call_json(c, r);
      out.push_back(resp.find("engine") ? *resp.find("engine") : Json::object());
    }
    return out;
  };
  const auto before = worker_engines();
  double exec_max = 0.0, exec_sum = 0.0;
  for (const auto& e : before) {
    exec_max = std::max(exec_max, json_num(&e, "exec_wall_s"));
    exec_sum += json_num(&e, "exec_wall_s");
  }
  run.set("cluster.host_imbalance",
          exec_sum > 0 ? exec_max / (exec_sum / kClusterWorkers) : 0.0);

  auto counter = std::make_shared<CountingSink>();
  telemetry::bus().add_sink(counter);
  const Window win = closed_loop(1, seconds, [&](int, std::uint64_t n) {
    const serve::Request r = suite_request("u" + std::to_string(n));
    const std::string line = serve::request_to_json(r).dump(-1);
    const auto s0 = Clock::now();
    std::string reply = round_trip(client, line);
    const double ms = cb::seconds_between(s0, Clock::now()) * 1e3;
    return Outcome{ms, verify(r, reply), static_cast<double>(reply.size())};
  });
  telemetry::bus().remove_sink(counter.get());
  const auto after = worker_engines();
  run.tally.add(true, win.ok);
  run.tally.add(false, win.bad);
  double misses = 0.0;
  for (std::size_t i = 0; i < names.size(); ++i)
    misses += json_num(&after[i], "misses") - json_num(&before[i], "misses");
  run.tally.add(misses == 0.0);
  run.set("cluster.latency_p50_ms", cb::median(win.lat_ms));
  run.set("cluster.latency_p90_ms", cb::percentile(win.lat_ms, 90).value_or(0.0));
  run.set("cluster.throughput_rps", static_cast<double>(win.ok) / win.wall_s);
  run.set("telemetry.events_per_req",
          static_cast<double>(counter->n) / std::max(1.0, static_cast<double>(win.ok)));

  // Traced window: the routed round trip, then the router's suite path
  // rebuilt outside-in against the same live workers.
  engine::ExperimentEngine local;  // enumeration and pricing only
  std::vector<serve::Client> direct;
  for (const auto& name : names) direct.push_back(connect_to(name + ".sock"));
  double imbalance = 0.0;
  const double t_begin = log->now();
  const Window tw = closed_loop(1, seconds, [&](int, std::uint64_t n) {
    const serve::Request r = suite_request("t" + std::to_string(n));
    cb::ThreadContext ctx(-1, r.trace);
    const std::string line = serve::request_to_json(r).dump(-1);
    std::string reply;
    const auto s0 = Clock::now();
    {
      cb::Scope sp(log, "cluster", "Client::call", "router");
      reply = round_trip(client, line);
      cb::Scope pp(log, "report", "Json::parse");
      Json::parse(reply);
    }
    const double ms = cb::seconds_between(s0, Clock::now()) * 1e3;
    bool ok = verify(r, reply);

    std::vector<cluster::CostedCell> cells;
    {
      cb::Scope sp(log, "cluster", "cluster::enumerate_suite_cells");
      cells = cluster::enumerate_suite_cells(local, kClusterScale);
    }
    cluster::ShardAssignment a;
    {
      cb::Scope sp(log, "cluster", "cluster::assign_cells");
      a = cluster::assign_cells(cells, names);
    }
    imbalance = a.imbalance_ratio;
    std::vector<report::MetricsReport> shards(a.shards.size());
    std::vector<int> parsed(a.shards.size(), 0);
    std::vector<std::thread> th;
    for (std::size_t s = 0; s < a.shards.size(); ++s)
      th.emplace_back([&, s] {
        cb::ThreadContext sctx(-1, r.trace);
        serve::Request shard = r;
        shard.id = r.id + "#s" + std::to_string(s);
        shard.cells = a.shards[s];
        cb::Scope sp(log, "cluster", "Client::call", names[s]);
        const std::string raw =
            round_trip(direct[s], serve::request_to_json(shard).dump(-1));
        std::optional<Json> doc;
        {
          cb::Scope pp(log, "report", "Json::parse", "shard");
          doc = Json::parse(raw);
        }
        const Json* rep = doc ? doc->find("report") : nullptr;
        if (auto p = rep ? report::MetricsReport::from_json(*rep) : std::nullopt) {
          shards[s] = std::move(*p);
          parsed[s] = 1;
        }
      });
    for (auto& t : th) t.join();
    std::optional<report::MetricsReport> merged;
    {
      cb::Scope sp(log, "cluster", "cluster::merge_shard_reports");
      merged = cluster::merge_shard_reports(
          shards, cluster::canonical_suite_record_keys(local, kClusterScale),
          nullptr);
    }
    std::string bytes;
    if (merged) {
      cb::Scope sp(log, "report", "MetricsReport::to_json", "merged");
      bytes = merged->to_json().dump(-1);
    }
    ok = ok && std::count(parsed.begin(), parsed.end(), 1) ==
                   static_cast<long>(parsed.size()) &&
         cb::digest(bytes) == g.report;
    return Outcome{ms, ok, static_cast<double>(reply.size())};
  });
  run.tally.add(true, tw.ok);
  run.tally.add(false, tw.bad);
  const auto rs = router.router.stats();
  run.tally.add(rs.failovers == 0 && rs.retries == 0 &&
                rs.rejected_unavailable == 0 && rs.bad_requests == 0);
  run.set("telemetry.emit_us", emit_us());

  const SpanStats st{log->spans(), t_begin};
  std::vector<double> rtt, routed_parse;
  for (const auto& sp : st.spans) {
    if (sp.name == "Client::call" && sp.tag != "router") rtt.push_back(sp.dur());
    if (sp.name == "Json::parse" && sp.tag.empty()) routed_parse.push_back(sp.dur());
  }
  run.set("cluster.enumerate_ms", st.med("cluster::enumerate_suite_cells") * 1e3);
  run.set("cluster.assign_ms", st.med("cluster::assign_cells") * 1e3);
  run.set("cluster.merge_ms", st.med("cluster::merge_shard_reports") * 1e3);
  run.set("cluster.shard_rtt_ms", cb::median(rtt) * 1e3);
  run.set("cluster.failovers", static_cast<double>(rs.failovers));
  run.set("cluster.retries", static_cast<double>(rs.retries));
  run.set("cluster.modeled_imbalance", imbalance);
  run.set("report.suite_parse_ms", cb::median(routed_parse) * 1e3);
}

// ---------------------------------------------------------------------------
// Goldens, stamp and output.

cb::Golden make_golden(int scale, const std::string& model, bool verify) {
  engine::ExperimentEngine eng({kJobs, "", model});
  cb::Golden g;
  const std::string bytes = serve::suite_report(eng, scale, model).to_json().dump(-1);
  g.report = cb::digest(bytes);
  g.records = cb::record_digests(*Json::parse(bytes));
  g.cells = eng.expand(engine::Plan::suite(scale)).size();
  if (verify) {
    const auto conf = check::verify_report(eng);
    g.verdicts = conf.verdicts.size();
    g.violations = conf.violations;
    g.verdict_digest = verdict_digest(conf.verdicts);
  }
  return g;
}

int write_goldens(const std::string& dir) {
  fs::create_directories(dir);
  const std::vector<std::tuple<std::string, int, std::string, bool>> sets = {
      {"suite_cold", kColdScale, "analytic", true},
      {"suite_disk", kDiskScale, "cachesim", true},
      {"cluster_suite", kClusterScale, "analytic", false}};
  for (const auto& [name, scale, model, verify] : sets) {
    std::ofstream(fs::path(dir) / (name + ".json"))
        << cb::golden_to_json(make_golden(scale, model, verify)).dump(2) << "\n";
    std::cerr << "cubiebench: wrote golden " << name << "\n";
  }
  return 0;
}

Json stamp(const Options& o) {
  namespace simd = mma::simd;
  Json j = Json::object();
  j["workload"] = Json::string(o.workload);
  j["seed"] = Json::number(static_cast<double>(o.seed));
  j["trace"] = Json::boolean(o.trace);
  j["nproc"] = Json::number(static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  j["simd"] = Json::string(simd::isa_name(simd::active_isa()));
  j["force_scalar"] = Json::boolean(simd::scalar_forced_by_env());
  j["build_type"] = Json::string(CUBIEBENCH_BUILD_TYPE);
  j["git_sha"] = Json::string(o.git_sha);
  j["source_digest"] = Json::string(o.source_digest);
  return j;
}

// The traced table as a schema-v1 MetricsReport: one record per (workload,
// module) holding that module's metrics and the self time of its spans.
report::MetricsReport layer_report(Run& run, int scale) {
  report::MetricsReport rep;
  rep.tool = "cubiebench_layers";
  rep.title = "cubiebench traced per-layer table";
  rep.scale_divisor = scale;
  const auto spans = run.log->spans();
  const auto self = cb::self_times(spans);
  std::map<std::string, double> self_by_module;
  for (std::size_t i = 0; i < spans.size(); ++i)
    self_by_module[spans[i].module] += self[i];
  for (const auto& d : per_layer_metrics()) {
    auto& rec = rep.add_record(run.o.workload, module_of(d.name), "-", "traced");
    rec.set(d.name, run.metrics[d.name]);
  }
  for (const auto& [module, s] : self_by_module)
    rep.add_record(run.o.workload, module, "-", "traced").set("self_s", s);
  const Json st = stamp(run.o);
  report::MetricsReport::CapturedTable t{"stamp", {"key", "value"}, {}};
  for (const auto& [k, v] : st.members())
    t.rows.push_back({k, v.is_string() ? v.as_string() : v.dump(-1)});
  rep.tables.push_back(std::move(t));
  // The five slowest calls, e.g. the straggler cell of a suite.
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const std::size_t top = std::min<std::size_t>(5, order.size());
  std::partial_sort(order.begin(), order.begin() + top, order.end(),
                    [&](std::size_t a, std::size_t b) {
                      return spans[a].dur() > spans[b].dur();
                    });
  report::MetricsReport::CapturedTable slow{
      "slowest_calls", {"module", "call", "detail", "wall_s"}, {}};
  for (std::size_t i = 0; i < top; ++i) {
    const auto& s = spans[order[i]];
    slow.rows.push_back({s.module, s.name, s.tag, Json::number(s.dur()).dump(-1)});
  }
  rep.tables.push_back(std::move(slow));
  return rep;
}

void write_spans(const std::vector<cb::Span>& spans, const std::string& path) {
  std::ofstream out(path);
  for (const auto& s : spans) {
    Json j = Json::object();
    j["module"] = Json::string(s.module);
    j["name"] = Json::string(s.name);
    j["tag"] = Json::string(s.tag);
    j["trace"] = Json::string(s.trace);
    j["start_s"] = Json::number(s.t0);
    j["end_s"] = Json::number(s.t1);
    j["parent"] = Json::number(s.parent);
    out << j.dump(-1) << '\n';
  }
}

int run_workload(const Options& o) {
  const std::set<std::string> known = {"suite_cold", "suite_disk"};
  if (!known.count(o.workload)) {
    std::cerr << "cubiebench: unknown workload '" << o.workload << "'\n";
    return 2;
  }
  std::error_code ec;
  fs::current_path(o.scratch, ec);  // sockets use short relative paths
  if (ec) {
    std::cerr << "cubiebench: cannot enter scratch dir " << o.scratch << "\n";
    return 2;
  }
  Run run(o);
  if (o.trace)
    for (const auto& d : per_layer_metrics())
      run.metrics[d.name] = 0.0;  // 0 = layer not exercised

  auto golden = [&](const std::string& name) {
    std::string err;
    auto g = cb::load_golden((fs::path(o.goldens) / (name + ".json")).string(), &err);
    if (!g) throw std::runtime_error(err);
    return *g;
  };
  // The traced run adds a side pass over the layers the suites bypass.
  const double side_s = std::min(3.0, o.seconds / 2);
  const int scale = o.workload == "suite_cold" ? kColdScale : kDiskScale;
  if (o.workload == "suite_cold") {
    suite_workload(run, {kColdScale, "analytic", false}, golden("suite_cold"));
    if (o.trace) serve_side_pass(run, side_s);
  } else {
    suite_workload(run, {kDiskScale, "cachesim", true}, golden("suite_disk"));
    if (o.trace) cluster_side_pass(run, golden("cluster_suite"), side_s);
  }
  if (o.trace) run.set("fail_ratio", run.tally.fail_ratio());

  const auto defs = o.trace ? per_layer_metrics() : end_to_end_metrics();
  Json metrics = Json::object();
  for (const auto& d : defs) {
    if (!cb::valid_metric_name(d.name))
      throw std::logic_error("invalid metric name " + d.name);
    Json m = Json::object();
    m["value"] = Json::number(run.metrics[d.name]);
    m["unit"] = Json::string(d.unit);
    metrics[d.name] = std::move(m);
  }
  if (o.trace) {
    if (!o.report_out.empty() && !layer_report(run, scale).write_file(o.report_out))
      throw std::runtime_error("cannot write " + o.report_out);
    if (!o.spans_out.empty()) write_spans(run.log->spans(), o.spans_out);
  }
  Json result = Json::object();
  result["correct"] = Json::boolean(run.tally.correct());
  result["attempted"] = Json::number(static_cast<double>(run.tally.attempted));
  result["failed"] = Json::number(static_cast<double>(run.tally.failed));
  result["metrics"] = std::move(metrics);
  Json st = Json::object();
  st["stamp"] = stamp(o);
  std::cout << st.dump(-1) << "\n" << result.dump(-1) << std::endl;
  return run.tally.correct() ? 0 : 1;
}

int list_metrics() {
  auto to_json = [](const std::vector<MetricDef>& defs) {
    Json a = Json::array();
    for (const auto& d : defs) {
      Json m = Json::object();
      m["name"] = Json::string(d.name);
      m["unit"] = Json::string(d.unit);
      m["better"] = Json::string(d.better);
      a.push_back(std::move(m));
    }
    return a;
  };
  Json j = Json::object();
  j["end_to_end"] = to_json(end_to_end_metrics());
  j["per_layer"] = to_json(per_layer_metrics());
  std::cout << j.dump(2) << "\n";
  return 0;
}

int usage() {
  std::cerr << "usage: cubiebench <suite_cold|suite_disk>"
               " --seed N --seconds S --trace 0|1 --scratch DIR --goldens DIR"
               " [--report F] [--spans F] [--corrupt] [--git-sha X]"
               " [--source-digest X]\n"
               "       cubiebench write-cache DIR SCALE MODEL\n"
               "       cubiebench setup-probe FILE\n"
               "       cubiebench goldens --goldens DIR\n"
               "       cubiebench list-metrics\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "cubiebench: refusing to measure a build with assertions on\n";
  return 2;
#endif
  if (std::string(CUBIEBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "cubiebench: refusing to measure a " << CUBIEBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  try {
    if (mode == "list-metrics") return list_metrics();
    if (mode == "write-cache") {
      if (argc != 5) return usage();
      return write_cache(argv[2], std::stoi(argv[3]), argv[4]);
    }
    if (mode == "setup-probe") {
      if (argc != 3) return usage();
      return setup_probe(argv[2]);
    }
    Options o;
    o.workload = mode;
    for (int i = 2; i < argc; ++i) {
      const std::string a = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--seed") o.seed = std::stoull(value());
      else if (a == "--seconds") o.seconds = std::stod(value());
      else if (a == "--trace") o.trace = value() == "1";
      else if (a == "--scratch") o.scratch = value();
      else if (a == "--goldens") o.goldens = fs::absolute(value()).string();
      else if (a == "--report") o.report_out = fs::absolute(value()).string();
      else if (a == "--spans") o.spans_out = fs::absolute(value()).string();
      else if (a == "--git-sha") o.git_sha = value();
      else if (a == "--source-digest") o.source_digest = value();
      else if (a == "--corrupt") o.corrupt = true;
      else throw std::invalid_argument("unknown flag " + a);
    }
    if (mode == "goldens") return write_goldens(o.goldens);
    if (o.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
    return run_workload(o);
  } catch (const std::invalid_argument& e) {
    std::cerr << "cubiebench: " << e.what() << "\n";
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "cubiebench: " << e.what() << "\n";
    return 1;
  }
}
