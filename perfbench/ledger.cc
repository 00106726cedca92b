#include "ledger.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/telemetry/telemetry.h"

namespace perfbench {

namespace telemetry = guardrail::telemetry;

double NearestRank(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(p * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

std::optional<double> SupportedPercentile(const std::vector<double>& samples,
                                          double p, int min_beyond) {
  const double n = static_cast<double>(samples.size());
  const int64_t rank = static_cast<int64_t>(std::ceil(p * n));
  const int64_t beyond = static_cast<int64_t>(samples.size()) - rank;
  if (samples.empty() || beyond < min_beyond) return std::nullopt;
  return NearestRank(samples, p);
}

double Median(const std::vector<double>& samples) {
  return NearestRank(samples, 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

void FailureLedger::Record(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
}

void FailureLedger::Merge(const FailureLedger& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
}

double FailureLedger::rate() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

namespace {

// The integer value of `"key": N` in a pre-rendered args body, if present.
std::optional<uint64_t> IntArg(const std::string& args_json,
                               const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = args_json.find(needle);
  if (at == std::string::npos) return std::nullopt;
  return std::strtoull(args_json.c_str() + at + needle.size(), nullptr, 10);
}

}  // namespace

std::vector<SpanRecord> SpansFromTrace(
    const std::vector<telemetry::TraceEventRecord>& events) {
  std::vector<SpanRecord> spans;  // Index = id - 1, in begin order.
  std::vector<bool> closed;
  std::unordered_map<uint32_t, std::vector<size_t>> open;  // Per thread.
  for (const telemetry::TraceEventRecord& e : events) {
    std::vector<size_t>& stack = open[e.tid];
    if (e.phase == 'B') {
      SpanRecord s;
      s.id = spans.size() + 1;
      s.parent = stack.empty() ? 0 : spans[stack.back()].id;
      s.name = e.name;
      s.start_ns = e.ts_micros * 1000;
      s.tid = e.tid;
      stack.push_back(spans.size());
      spans.push_back(std::move(s));
      closed.push_back(false);
    } else if (e.phase == 'E' && !stack.empty() &&
               spans[stack.back()].name == e.name) {
      SpanRecord& s = spans[stack.back()];
      s.end_ns = e.ts_micros * 1000;
      s.request_id = IntArg(e.args_json, "request_id").value_or(0);
      closed[stack.back()] = true;
      stack.pop_back();
    }
  }
  // Parents begin before their children, so one pass in begin order hands
  // every request id down the tree.
  for (SpanRecord& s : spans) {
    if (s.request_id == 0 && s.parent != 0) {
      s.request_id = spans[s.parent - 1].request_id;
    }
  }
  std::vector<SpanRecord> finished;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (closed[i]) finished.push_back(std::move(spans[i]));
  }
  return finished;
}

void StartTracing() {
  telemetry::ClearTrace();
  telemetry::MetricsRegistry::Instance().ResetAll();
  telemetry::EnableMetrics(true);
  telemetry::EnableTracing(true);
}

std::vector<SpanRecord> StopTracing(FailureLedger* ledger) {
  telemetry::EnableTracing(false);
  telemetry::EnableMetrics(false);
  const bool complete = telemetry::TraceEventsDropped() == 0;
  ledger->Record(complete);
  if (!complete) {
    std::fprintf(stderr, "trace buffer overflowed: %lld event(s) dropped\n",
                 static_cast<long long>(telemetry::TraceEventsDropped()));
  }
  return SpansFromTrace(telemetry::SnapshotTraceEvents());
}

std::map<std::string, double> SelfSeconds(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<std::string, double> out;
  for (const SpanRecord& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals clipped to the parent's.
      std::vector<std::pair<int64_t, int64_t>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_begin = 0;
      int64_t cur_end = 0;
      bool open = false;
      for (auto [b, e] : iv) {
        b = std::max(b, s.start_ns);
        e = std::min(e, s.end_ns);
        if (e <= b) continue;
        if (open && b <= cur_end) {
          cur_end = std::max(cur_end, e);
          continue;
        }
        if (open) covered += cur_end - cur_begin;
        cur_begin = b;
        cur_end = e;
        open = true;
      }
      if (open) covered += cur_end - cur_begin;
    }
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e9;
  }
  return out;
}

std::map<std::string, double> TotalSeconds(
    const std::vector<SpanRecord>& spans) {
  std::map<std::string, double> out;
  for (const SpanRecord& s : spans) {
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns) / 1e9;
  }
  return out;
}

std::map<std::string, int64_t> SpanCounts(
    const std::vector<SpanRecord>& spans) {
  std::map<std::string, int64_t> out;
  for (const SpanRecord& s : spans) ++out[s.name];
  return out;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

std::string ResultJson(const RunResult& result, bool traced) {
  const std::vector<Metric>& metrics =
      traced ? result.per_layer : result.end_to_end;
  std::string out = "{\"correct\": ";
  out += result.ledger.failed() == 0 && result.ledger.attempted() > 0
             ? "true"
             : "false";
  out += ", \"attempted\": " + std::to_string(result.ledger.attempted());
  out += ", \"failed\": " + std::to_string(result.ledger.failed());
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

CpuShuffler::CpuShuffler(int period_ms)
    : period_ms_(period_ms), thread_([this] { Loop(); }) {}

CpuShuffler::~CpuShuffler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void CpuShuffler::Loop() {
  cpu_set_t all;
  if (sched_getaffinity(0, sizeof(all), &all) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all)) cpus.push_back(c);
  }
  const pid_t self = static_cast<pid_t>(syscall(SYS_gettid));
  size_t round = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (!cv_.wait_for(lock, std::chrono::milliseconds(period_ms_),
                       [this] { return stop_; })) {
    if (cpus.size() < 2) continue;
    DIR* tasks = opendir("/proc/self/task");
    if (tasks == nullptr) continue;
    size_t i = round++;
    while (dirent* entry = readdir(tasks)) {
      const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
      if (tid <= 0 || tid == self) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[i++ % cpus.size()], &one);
      // Pinning migrates the thread now; widening the mask again leaves it
      // there until the scheduler or the next round moves it.
      if (sched_setaffinity(tid, sizeof(one), &one) == 0) {
        sched_setaffinity(tid, sizeof(all), &all);
      }
    }
    closedir(tasks);
  }
}

}  // namespace perfbench
