// perfbench_driver — runs one benchmark workload and prints its metrics.
//
//   perfbench_driver --workload=NAME --specs=DIR --work=DIR --seed=N
//                    --seconds=S --trace=0|1 --nproc=N
//
// Prints human-readable lines, then as its last line one JSON object with
// the keys correct, attempted, failed and metrics. Exits 0 only when every
// correctness check passed. Refuses to run from an unoptimized build.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

namespace perfbench {
void run_workload(Run& run);
}  // namespace perfbench

namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

bool optimized_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  const std::string type = PERFBENCH_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo" || type == "MinSizeRel";
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") options.workload = value;
    else if (key == "--specs") options.specs_dir = value;
    else if (key == "--work") options.work_dir = value;
    else if (key == "--seed")
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") options.seconds = std::atof(value.c_str());
    else if (key == "--trace") options.trace = value == "1";
    else if (key == "--nproc") options.nproc = std::atoi(value.c_str());
    else {
      std::fprintf(stderr, "perfbench_driver: unknown argument '%s'\n",
                   arg.c_str());
      return 2;
    }
  }
  if (options.workload.empty() || options.specs_dir.empty() ||
      options.work_dir.empty() || options.nproc < 1) {
    std::fprintf(stderr, "perfbench_driver: --workload, --specs, --work and "
                         "--nproc are required\n");
    return 2;
  }
  if (!optimized_build()) {
    std::fprintf(stderr, "perfbench_driver: refusing to measure an unoptimized "
                         "build (build type '%s')\n", PERFBENCH_BUILD_TYPE);
    return 3;
  }

  std::printf("build = %s %s, workload = %s, seed = %llu, trace = %d\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  perfbench::Run run{options};
  try {
    perfbench::run_workload(run);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_driver: %s\n", error.what());
    return 1;
  }

  for (const auto& metric : run.metrics())
    std::printf("%-36s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  std::string json = "{\"correct\": ";
  json += run.checks_passed() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(run.attempted());
  json += ", \"failed\": " + std::to_string(run.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < run.metrics().size(); ++i) {
    const auto& metric = run.metrics()[i];
    if (i > 0) json += ", ";
    json += "\"" + metric.name + "\": {\"value\": " +
            json_number(metric.value) + ", \"unit\": \"" + metric.unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return run.checks_passed() ? 0 : 1;
}
