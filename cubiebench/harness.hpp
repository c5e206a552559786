#pragma once
// Pure building blocks of the Cubie host-cost benchmark (cubiebench): tail
// percentiles, failure accounting, metric-name validation, golden record
// digests, and the in-memory span log of the traced run. Kept free of
// workload logic so cubiebench_selftest can exercise every rule directly.

#include "cluster/shard.hpp"
#include "common/report.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace cubiebench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Percentiles.

// Samples strictly above the rank of percentile q (linear interpolation
// over n sorted samples puts it at q/100 * (n-1)).
inline std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(std::floor(q / 100.0 * (n - 1)));
  return n - 1 - rank;
}

// Linear-interpolated percentile q in [0, 100] (numpy's default). Refuses
// (nullopt) when fewer than `min_beyond` samples lie beyond it: a p99 needs
// 1000 samples before ten of them sit above it. The median is reported
// with min_beyond = 0.
inline std::optional<double> percentile(std::vector<double> v, double q,
                                        std::size_t min_beyond = 10) {
  if (v.empty() || samples_beyond(v.size(), q) < min_beyond)
    return std::nullopt;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) {
  return percentile(v, 50.0, 0).value_or(0.0);
}

// ---------------------------------------------------------------------------
// Failure accounting: every checked output is one attempted operation; a
// wrong, rejected or missing output is a failed one.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(bool ok, std::uint64_t n = 1) {
    attempted += n;
    if (!ok) failed += n;
  }
  // Nothing attempted means nothing was shown correct: ratio 1.
  double fail_ratio() const {
    return attempted == 0 ? 1.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
  bool correct() const { return attempted > 0 && failed == 0; }
};

// ---------------------------------------------------------------------------
// Metric names: a letter or digit, then at most 63 of [A-Za-z0-9_.-].
inline bool valid_metric_name(const std::string& s) {
  if (s.empty() || s.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(s[0])) return false;
  return std::all_of(s.begin(), s.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

// ---------------------------------------------------------------------------
// Goldens: digests of a suite report's serialized bytes, of each record,
// and of the conformance verdicts, committed beside the benchmark.

inline std::string hex64(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

inline std::string digest(const std::string& bytes) {
  return hex64(cubie::cluster::fnv1a64(bytes));
}

struct Golden {
  std::string report;                          // digest of the compact dump
  std::map<std::string, std::string> records;  // record key -> digest
  std::size_t cells = 0;                       // unique cells of the plan
  std::size_t verdicts = 0;
  std::size_t violations = 0;
  std::string verdict_digest;
};

// Record key (workload|variant|gpu|case) of a serialized record object.
inline std::string record_key(const cubie::report::Json& rec) {
  std::string k;
  for (const char* f : {"workload", "variant", "gpu", "case"}) {
    if (!k.empty()) k += '|';
    if (const auto* v = rec.find(f); v && v->is_string()) k += v->as_string();
  }
  return k;
}

inline std::map<std::string, std::string> record_digests(
    const cubie::report::Json& report) {
  std::map<std::string, std::string> out;
  if (const auto* recs = report.find("records"); recs && recs->is_array())
    for (std::size_t i = 0; i < recs->size(); ++i)
      out[record_key(recs->at(i))] = digest(recs->at(i).dump(-1));
  return out;
}

// Records of `got` that are missing, extra, or differ from the golden.
inline std::size_t mismatched_records(
    const std::map<std::string, std::string>& got, const Golden& g) {
  std::size_t bad = 0;
  for (const auto& [k, d] : g.records) {
    const auto it = got.find(k);
    if (it == got.end() || it->second != d) ++bad;
  }
  for (const auto& [k, d] : got)
    if (g.records.count(k) == 0) ++bad;
  return bad;
}

// Mismatched records of a serialized report; every golden record counts
// when the bytes no longer parse.
inline std::size_t check_report_bytes(const std::string& bytes,
                                      const Golden& g) {
  if (digest(bytes) == g.report) return 0;
  const auto doc = cubie::report::Json::parse(bytes);
  if (!doc) return std::max<std::size_t>(g.records.size(), 1);
  return std::max<std::size_t>(mismatched_records(record_digests(*doc), g), 1);
}

inline cubie::report::Json golden_to_json(const Golden& g) {
  using cubie::report::Json;
  Json j = Json::object();
  j["report"] = Json::string(g.report);
  j["cells"] = Json::number(static_cast<double>(g.cells));
  j["verdicts"] = Json::number(static_cast<double>(g.verdicts));
  j["violations"] = Json::number(static_cast<double>(g.violations));
  j["verdict_digest"] = Json::string(g.verdict_digest);
  Json recs = Json::object();
  for (const auto& [k, d] : g.records) recs[k] = Json::string(d);
  j["records"] = std::move(recs);
  return j;
}

inline std::optional<Golden> load_golden(const std::string& path,
                                         std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open golden " + path;
    return std::nullopt;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const auto j = cubie::report::Json::parse(ss.str(), error);
  if (!j) return std::nullopt;
  Golden g;
  auto str = [&](const char* k) {
    const auto* v = j->find(k);
    return v && v->is_string() ? v->as_string() : std::string();
  };
  auto num = [&](const char* k) {
    const auto* v = j->find(k);
    return v && v->is_number() ? static_cast<std::size_t>(v->as_number()) : 0;
  };
  g.report = str("report");
  g.verdict_digest = str("verdict_digest");
  g.cells = num("cells");
  g.verdicts = num("verdicts");
  g.violations = num("violations");
  if (const auto* r = j->find("records"); r && r->is_object())
    for (const auto& [k, v] : r->members())
      if (v.is_string()) g.records[k] = v.as_string();
  if (g.report.empty()) {
    if (error) *error = "golden " + path + " has no report digest";
    return std::nullopt;
  }
  return g;
}

// ---------------------------------------------------------------------------
// Spans of the traced run: recorded by the benchmark around each call it
// makes into a layer's public function, kept in memory, written at exit.

struct Span {
  std::string module;  // layer the called function belongs to
  std::string name;    // the called function, e.g. "DeviceModel::predict"
  std::string tag;     // call detail, e.g. the cell "GEMM|Baseline|1024^3"
  std::string trace;   // trace id of the operation the call served
  double t0 = 0.0, t1 = 0.0;  // seconds since the log's epoch
  int parent = -1;            // index of the enclosing span, -1 at the root

  double dur() const { return t1 - t0; }
};

// The enclosing span and trace id of the calling thread.
inline thread_local int tl_parent = -1;
inline thread_local std::string tl_trace;

class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  double now() const { return seconds_between(epoch_, Clock::now()); }

  int open(std::string module, std::string name, std::string tag) {
    Span s{std::move(module), std::move(name), std::move(tag), tl_trace,
           now(), 0.0, tl_parent};
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) {
    const double t = now();
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<std::size_t>(id)].t1 = t;
  }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
  }

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span; a no-op when `log` is null (the untraced run).
class Scope {
 public:
  Scope(SpanLog* log, std::string module, std::string name,
        std::string tag = {})
      : log_(log) {
    if (!log_) return;
    id_ = log_->open(std::move(module), std::move(name), std::move(tag));
    saved_ = tl_parent;
    tl_parent = id_;
  }
  ~Scope() {
    if (!log_) return;
    log_->close(id_);
    tl_parent = saved_;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int id_ = -1;
  int saved_ = -1;
};

// Installs a parent span and trace id on a pool thread for its lifetime.
class ThreadContext {
 public:
  ThreadContext(int parent, std::string trace)
      : saved_parent_(tl_parent), saved_trace_(std::move(tl_trace)) {
    tl_parent = parent;
    tl_trace = std::move(trace);
  }
  ~ThreadContext() {
    tl_parent = saved_parent_;
    tl_trace = std::move(saved_trace_);
  }
  ThreadContext(const ThreadContext&) = delete;
  ThreadContext& operator=(const ThreadContext&) = delete;

 private:
  int saved_parent_;
  std::string saved_trace_;
};

// Length of the union of [a, b) intervals.
inline double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, lo = 0.0, hi = 0.0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (b <= a) continue;
    if (!open || a > hi) {
      if (open) total += hi - lo;
      lo = a;
      hi = b;
      open = true;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (open) total += hi - lo;
  return total;
}

// Self time of every span: its duration minus the part of it that its
// children cover (children of one parent may overlap on pool threads).
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const auto& s : spans)
    if (s.parent >= 0) {
      const Span& p = spans[static_cast<std::size_t>(s.parent)];
      kids[static_cast<std::size_t>(s.parent)].emplace_back(
          std::max(s.t0, p.t0), std::min(s.t1, p.t1));
    }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[i] = spans[i].dur() - union_length(kids[i]);
  return out;
}

}  // namespace cubiebench
