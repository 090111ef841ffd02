#include "util.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <numeric>

namespace perfbench {

double wall_us() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

double cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

StealMeter::StealMeter() {
  std::FILE *f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    steal_ = v[7];
    for (unsigned long long x : v) total_ += x;
  }
  std::fclose(f);
}

double StealMeter::share() const {
  StealMeter now;
  if (now.total_ <= total_) return 0.0;
  return static_cast<double>(now.steal_ - steal_) /
         static_cast<double>(now.total_ - total_);
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double mean(const std::vector<double> &xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double geomean(const std::vector<double> &xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

std::uint64_t derive_seed(std::uint64_t seed, const std::string &stream) {
  // FNV-1a over the stream name, mixed with the run seed by SplitMix64.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : stream) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  std::uint64_t z = seed ^ h;
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Result::mismatch(const std::string &what) {
  correct = false;
  ++failed;
  std::fprintf(stderr, "perfbench: output check failed: %s\n", what.c_str());
}

double median_setup_s(int times, const std::function<void()> &setup,
                      const std::function<void()> &teardown) {
  std::vector<double> samples;
  for (int i = 0; i < times; ++i) {
    if (i > 0 && teardown) teardown();
    // Hand freed memory back to the system, so every repeat starts from
    // the same allocator state instead of reusing the previous repeat's.
    malloc_trim(0);
    const double t0 = wall_us();
    setup();
    samples.push_back((wall_us() - t0) / 1e6);
  }
  return median(std::move(samples));
}

// ----------------------------------------------------------------- tracer

std::uint64_t Tracer::add(std::string name, std::string track, double start_us,
                          double end_us, std::uint64_t parent,
                          std::uint64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = next_id_++;
  spans_.push_back(SpanRecord{id, parent, request, std::move(name),
                              std::move(track), start_us, end_us});
  return id;
}

std::uint64_t Tracer::reserve_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::add_with_id(std::uint64_t id, std::string name, std::string track,
                         double start_us, double end_us, std::uint64_t parent,
                         std::uint64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(SpanRecord{id, parent, request, std::move(name),
                              std::move(track), start_us, end_us});
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::self_time_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const auto &s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_us, s.end_us);
  }
  std::map<std::string, double> self;
  for (const auto &s : spans_) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to this span.
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      double cur_lo = 0.0, cur_hi = -1.0;
      for (auto [lo, hi] : intervals) {
        lo = std::max(lo, s.start_us);
        hi = std::min(hi, s.end_us);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    self[s.name] += std::max(0.0, (s.end_us - s.start_us) - covered);
  }
  return self;
}

namespace {

std::string json_escape(const std::string &s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

bool Tracer::write_chrome(const std::string &path) const {
  const auto self = self_time_us();
  std::FILE *f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, int> tids;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  for (const auto &s : spans_) {
    const std::string name = json_escape(s.name);
    if (s.request != 0) {
      // Async slice pair keyed by the request id: all of one request's
      // layers share the id and nest on one Perfetto row.
      sep();
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"b\","
                   "\"id\":\"0x%llx\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                   "\"args\":{\"span\":%llu,\"parent\":%llu}}",
                   name.c_str(), static_cast<unsigned long long>(s.request),
                   s.start_us, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
      sep();
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"e\","
                   "\"id\":\"0x%llx\",\"pid\":1,\"tid\":1,\"ts\":%.3f}",
                   name.c_str(), static_cast<unsigned long long>(s.request),
                   s.end_us);
      continue;
    }
    auto [it, inserted] =
        tids.emplace(s.track, static_cast<int>(tids.size()) + 2);
    sep();
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"span\":%llu,\"parent\":%llu}}",
                 name.c_str(), it->second, s.start_us,
                 std::max(0.0, s.end_us - s.start_us),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  for (const auto &[track, tid] : tids) {
    sep();
    std::fprintf(f,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                 "\"args\":{\"name\":\"%s\"}}",
                 tid, json_escape(track).c_str());
  }
  std::fprintf(f, "\n],\"otherData\":{\"self_time_us\":{");
  bool first_self = true;
  for (const auto &[name, us] : self) {
    std::fprintf(f, "%s\"%s\":%.3f", first_self ? "" : ",",
                 json_escape(name).c_str(), us);
    first_self = false;
  }
  std::fprintf(f, "}}}\n");
  return std::fclose(f) == 0;
}

void print_self_times(const Tracer &tracer) {
  const auto self = tracer.self_time_us();
  double total = 0.0;
  for (const auto &[name, us] : self) total += us;
  std::printf("self time by layer (traced run, %zu spans):\n", tracer.size());
  for (const auto &[name, us] : self) {
    std::printf("  %-28s %12.3f ms  %5.1f%%\n", name.c_str(), us / 1000.0,
                total > 0.0 ? 100.0 * us / total : 0.0);
  }
}

}  // namespace perfbench
