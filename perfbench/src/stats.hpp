// Small helpers shared by the end-to-end and per-layer measurements: order
// statistics, clocks (wall, thread CPU, host steal) and a JSON object writer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

namespace perfbench {

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Interquartile range as a share of the median (0 for fewer than 2 samples).
inline double spread(const std::vector<double>& v) {
  const double m = median(v);
  if (v.size() < 2 || m == 0.0) return 0.0;
  return (quantile(v, 0.75) - quantile(v, 0.25)) / m;
}

/// CPU time of the calling thread, in seconds. Excludes time the thread was
/// preempted or the hypervisor stole its CPU.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Seconds the hypervisor has stolen from this machine's CPUs since boot,
/// summed over CPUs (the steal column of /proc/stat); 0 where unavailable.
inline double host_steal_s() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  const long hz = sysconf(_SC_CLK_TCK);
  return n == 8 && hz > 0 ? static_cast<double>(v[7]) / static_cast<double>(hz)
                          : 0.0;
}

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// `v` as a quoted JSON string (escapes quotes and backslashes only: the
/// benchmark's strings are digests and names, never control characters).
inline std::string json_string(const std::string& v) {
  std::string quoted = "\"";
  for (const char c : v) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  return quoted + "\"";
}

/// Flat JSON object built key by key; numbers keep all their digits.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(key, buf);
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  JsonObject& strs(const std::string& key, const std::vector<std::string>& v) {
    std::string arr = "[";
    for (const std::string& s : v) {
      if (arr.size() > 1) arr += ',';
      arr += json_string(s);
    }
    return raw(key, arr + "]");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += json_string(key);
    body_ += ':';
    body_ += json;
    return *this;
  }
  std::string text() const {
    std::string out = "{";
    out += body_;
    out += '}';
    return out;
  }

 private:
  std::string body_;
};

}  // namespace perfbench
