// Self-tests of the benchmark's own rules (harness.hpp): tail-percentile
// refusal, failure accounting, metric-name validation, golden detection of
// a perturbed record, and span self time. Exit 0 when every check holds.
//   cubiebench_selftest [scratch-dir]

#include "harness.hpp"

#include <cmath>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;
}

void percentiles() {
  using cubiebench::percentile;
  expect(percentile({1, 2, 3, 4}, 50, 0) == 2.5, "median interpolates");
  expect(percentile({7}, 50, 0) == 7.0, "median of one sample");
  expect(!percentile({}, 50, 0), "no percentile of nothing");
  expect(!percentile(ramp(100), 99), "p99 of 100 samples is refused");
  expect(!percentile(ramp(900), 99), "p99 of 900 samples is refused");
  expect(percentile(ramp(1000), 99).has_value(), "p99 of 1000 samples");
  expect(!percentile(ramp(50), 90), "p90 of 50 samples is refused");
  expect(percentile(ramp(200), 90).has_value(), "p90 of 200 samples");
  expect(cubiebench::samples_beyond(1000, 99) == 10, "1000 -> 10 beyond p99");
  const auto p = percentile(ramp(1001), 99);
  expect(p && std::fabs(*p - 991.0) < 1e-9, "p99 of 1..1001 is 991");
}

void tally() {
  cubiebench::Tally t;
  expect(t.fail_ratio() == 1.0 && !t.correct(), "nothing attempted fails");
  t.add(true, 3);
  expect(t.fail_ratio() == 0.0 && t.correct(), "all ok");
  t.add(false);
  expect(t.attempted == 4 && t.failed == 1, "counts");
  expect(t.fail_ratio() == 0.25 && !t.correct(), "one of four failed");
}

void metric_names() {
  using cubiebench::valid_metric_name;
  for (const char* ok : {"setup_s", "latency_p50_ms", "core.BFS.CC-E.wall_s",
                         "engine.disk_load_mb", "9lives"})
    expect(valid_metric_name(ok), std::string("valid name ") + ok);
  for (const char* bad : {"", ".hidden", "-x", "a b", "core/x", "p99%",
                          "caf\xc3\xa9"})
    expect(!valid_metric_name(bad), std::string("invalid name '") + bad + "'");
  expect(valid_metric_name(std::string(64, 'a')), "64 characters");
  expect(!valid_metric_name(std::string(65, 'a')), "65 characters");
}

void goldens(const std::filesystem::path& dir) {
  using namespace cubiebench;
  cubie::report::MetricsReport rep;
  rep.tool = "fig03_perf";
  rep.scale_divisor = 4;
  for (const char* w : {"GEMM", "GEMV", "BFS"}) {
    auto& r = rep.add_record(w, "TC", "H200", "c0");
    r.set("time_ms", 1.0 / 3.0);
    r.set("gflops", 42.5);
  }
  const std::string bytes = rep.to_json().dump(-1);
  Golden g;
  g.report = digest(bytes);
  g.records = record_digests(*cubie::report::Json::parse(bytes));
  expect(g.records.size() == 3, "three record digests");
  expect(check_report_bytes(bytes, g) == 0, "identical report passes");

  const auto path = (dir / "selftest_golden.json").string();
  std::ofstream(path) << golden_to_json(g).dump(2);
  std::string err;
  const auto loaded = load_golden(path, &err);
  std::filesystem::remove(path);
  expect(loaded && loaded->report == g.report && loaded->records == g.records,
         "golden round-trips through its file: " + err);

  auto perturbed = rep;
  perturbed.records[1].set("time_ms", std::nextafter(1.0 / 3.0, 1.0));
  expect(check_report_bytes(perturbed.to_json().dump(-1), g) == 1,
         "a one-ulp change to one record is one mismatch");
  auto dropped = rep;
  dropped.records.pop_back();
  expect(check_report_bytes(dropped.to_json().dump(-1), g) == 1,
         "a missing record is one mismatch");
  std::string flipped = bytes;
  flipped[flipped.find("42.5")] = '3';
  expect(check_report_bytes(flipped, g) == 1, "one flipped byte is caught");
  expect(check_report_bytes(bytes.substr(0, bytes.size() / 2), g) == 3,
         "unparseable bytes fail every record");
}

void spans() {
  using namespace cubiebench;
  expect(union_length({{0, 2}, {1, 3}, {5, 6}}) == 4.0, "union of intervals");
  std::vector<Span> s(4);
  s[0] = {"engine", "root", "", "", 0, 10, -1};
  s[1] = {"core", "a", "", "", 1, 3, 0};
  s[2] = {"core", "b", "", "", 2, 5, 0};  // overlaps a (another thread)
  s[3] = {"core", "c", "", "", 7, 8, 0};
  const auto self = self_times(s);
  expect(self[0] == 5.0, "root self time excludes the union of children");
  expect(self[1] == 2.0 && self[3] == 1.0, "leaf self time is its duration");

  SpanLog log;
  {
    Scope outer(&log, "engine", "outer");
    Scope inner(&log, "sim", "inner");
  }
  Scope off(nullptr, "engine", "untraced");  // no-op without a log
  const auto got = log.spans();
  expect(got.size() == 2 && got[1].parent == 0 && got[0].parent == -1,
         "scopes nest by thread");
  expect(got[0].t1 >= got[1].t1 && got[1].t1 >= got[1].t0, "spans close");
}

}  // namespace

int main(int argc, char** argv) {
  percentiles();
  tally();
  metric_names();
  goldens(argc > 1 ? argv[1] : std::filesystem::current_path());
  spans();
  if (failures) {
    std::cerr << failures << " self-test check(s) failed\n";
    return 1;
  }
  std::cout << "cubiebench self-tests passed\n";
  return 0;
}
