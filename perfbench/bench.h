// Shared pieces of the campaign benchmark driver: run bookkeeping (metrics,
// correctness gate), order statistics, and the in-memory span tracer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

struct Options {
  std::string workload;
  std::string specs_dir;  // generated spec files (run.py writes them)
  std::string work_dir;   // stores, outputs, traces; emptied by run.py
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  int nproc = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One benchmark invocation: the metrics it reports and the correctness
/// gate. Every check and every campaign point counts as one attempt; a
/// failed check, or a point that failed, was retried or was quarantined,
/// counts as one failure.
class Run {
 public:
  explicit Run(Options options) : options_(std::move(options)) {}

  const Options& options() const noexcept { return options_; }

  /// Records one correctness check; prints it when it fails.
  bool check(bool ok, const std::string& what);
  void points(long long attempted, long long failed);
  void metric(const std::string& name, double value, const std::string& unit);
  /// A human-readable line printed before the result object.
  void note(const std::string& line);

  long long attempted() const noexcept { return attempted_; }
  long long failed() const noexcept { return failed_; }
  bool checks_passed() const noexcept { return failed_checks_ == 0; }
  const std::vector<Metric>& metrics() const noexcept { return metrics_; }

 private:
  Options options_;
  long long attempted_ = 0;
  long long failed_ = 0;
  long long failed_checks_ = 0;
  std::vector<Metric> metrics_;
};

double median(std::vector<double> values);

/// The highest percentile that still has at least ten samples beyond it:
/// the 11th-largest sample, at percentile 100*(n-10)/n. With ten samples
/// or fewer no percentile qualifies and the maximum is reported instead
/// (percentile 100).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  int samples = 0;
};
Tail tail(std::vector<double> values);

/// A closed interval of one layer's work, recorded from outside the call.
/// Spans of one scenario point share `point` (-1 = not point-scoped).
struct Span {
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
  int parent = -1;
  int point = -1;
};

/// Single-threaded span recorder. Spans nest through an open-span stack and
/// stay in memory until write_csv(). A disabled tracer records nothing, so
/// the same call sequence can run untraced to measure tracing overhead.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int begin(const char* name, int point = -1);
  void end(int id);

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, int point = -1)
        : tracer_(tracer), id_(tracer.begin(name, point)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Durations of every span called `name`, in microseconds.
  std::vector<double> durations_us(const char* name) const;

  /// Share of the spans called `parent` not covered by their children.
  double uncovered_share(const char* parent) const;

  /// Self time per layer (the span-name prefix before the first '.'): each
  /// span's duration minus the time its children cover.
  std::map<std::string, double> self_ms_by_layer() const;

  void write_csv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
