// focq_perfbench: runs one workload of the focq end-to-end benchmark and
// prints a human-readable report followed by one JSON line with every
// metric it measured. run.py builds this binary, passes the workload's
// parameters from workloads.json and keeps the metrics BENCHMARK.json names.
//
//   focq_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --out-dir DIR [--set key=value]...
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "focq/obs/metrics.h"
#include "stats.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "focq_perfbench: %s\nusage: focq_perfbench --workload "
               "cold_oneshot|warm_cover_updates|served_open_loop --seed N "
               "--seconds S --trace 0|1 --out-dir DIR [--set key=value]...\n",
               why);
  std::exit(2);
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      cfg.seconds = std::stod(value);
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--out-dir") {
      cfg.out_dir = value;
    } else if (flag == "--set") {
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos) Usage("--set wants key=value");
      cfg.params[value.substr(0, eq)] = value.substr(eq + 1);
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (cfg.seconds <= 0) Usage("--seconds must be positive");

  perfbench::Outcome out;
  if (cfg.workload == "cold_oneshot") {
    out = perfbench::RunCold(cfg);
  } else if (cfg.workload == "warm_cover_updates") {
    out = perfbench::RunWarm(cfg);
  } else if (cfg.workload == "served_open_loop") {
    out = perfbench::RunServed(cfg);
  } else {
    Usage(("unknown workload '" + cfg.workload + "'").c_str());
  }

  out.Set("error_rate",
          perfbench::Ratio(static_cast<double>(out.failed),
                           static_cast<double>(out.attempted)),
          "fraction");
  for (const std::string& line : out.report) std::printf("%s\n", line.c_str());
  for (const std::string& p : out.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  for (const auto& [name, m] : out.metrics) {
    std::printf("  %-36s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += out.problems.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted) +
          ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : out.metrics) {
    if (!first) json += ", ";
    first = false;
    focq::AppendJsonString(&json, name);
    json += ": {\"value\": " + Number(m.value) + ", \"unit\": ";
    focq::AppendJsonString(&json, m.unit);
    json += "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
