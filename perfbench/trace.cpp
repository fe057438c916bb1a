#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "bench.h"

namespace perfbench {

bool Run::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    ++failed_checks_;
    std::printf("CHECK FAILED: %s\n", what.c_str());
    std::fflush(stdout);
  }
  return ok;
}

void Run::points(long long attempted, long long failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Run::metric(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Run::note(const std::string& line) {
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail tail(std::vector<double> values) {
  Tail out;
  out.samples = static_cast<int>(values.size());
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const int n = out.samples;
  if (n <= 10) {
    out.value = values.back();
    out.percentile = 100.0;
    return out;
  }
  out.value = values[static_cast<std::size_t>(n - 11)];
  out.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return out;
}

int Tracer::begin(const char* name, int point) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.point = point;
  if (point < 0 && span.parent >= 0)
    span.point = spans_[static_cast<std::size_t>(span.parent)].point;
  span.start = now_ns();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = now_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Tracer::durations_us(const char* name) const {
  std::vector<double> out;
  for (const Span& span : spans_)
    if (std::strcmp(span.name, name) == 0)
      out.push_back(static_cast<double>(span.end - span.start) * 1e-3);
  return out;
}

namespace {

std::vector<double> child_ns(const std::vector<Span>& spans) {
  std::vector<double> covered(spans.size(), 0.0);
  for (const Span& span : spans)
    if (span.parent >= 0)
      covered[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end - span.start);
  return covered;
}

}  // namespace

double Tracer::uncovered_share(const char* parent) const {
  const std::vector<double> covered = child_ns(spans_);
  double total = 0.0, uncovered = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, parent) != 0) continue;
    const double duration =
        static_cast<double>(spans_[i].end - spans_[i].start);
    total += duration;
    uncovered += std::max(0.0, duration - covered[i]);
  }
  return total > 0.0 ? uncovered / total : 0.0;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  const std::vector<double> covered = child_ns(spans_);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string name = spans_[i].name;
    const std::string layer = name.substr(0, name.find('.'));
    const double duration =
        static_cast<double>(spans_[i].end - spans_[i].start);
    out[layer] += std::max(0.0, duration - covered[i]) * 1e-6;
  }
  return out;
}

void Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  out << "id,name,start_ns,end_ns,parent,point\n";
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << i << ',' << span.name << ',' << (span.start - origin) << ','
        << (span.end - origin) << ',' << span.parent << ',' << span.point
        << '\n';
  }
}

}  // namespace perfbench
