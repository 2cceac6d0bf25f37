// Span recorder, sample bookkeeping and the result line (see bench.h).
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>

#include "bench.h"
#include "telemetry/json_writer.h"
#include "telemetry/mem_stats.h"

namespace perfbench {

using canon::telemetry::JsonValue;

std::int32_t Tracer::open(std::string_view name, std::string_view layer,
                          std::int64_t start_ns) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.layer = layer;
  s.start_ns = start_ns;
  s.end_ns = start_ns;
  s.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(s));
  const auto idx = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(idx);
  return idx;
}

void Tracer::close(std::int32_t span, std::int64_t end_ns) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end_ns = end_ns;
  // Scopes nest lexically, so the closing span is the innermost one.
  if (!stack_.empty() && stack_.back() == span) stack_.pop_back();
}

void Tracer::aggregate(std::string_view name, std::string_view layer,
                       std::uint64_t calls, std::int64_t ns) {
  if (!enabled_ || stack_.empty()) return;
  Span s;
  s.name = name;
  s.layer = layer;
  s.parent = stack_.back();
  s.start_ns = spans_[static_cast<std::size_t>(s.parent)].start_ns;
  s.end_ns = s.start_ns + ns;
  s.calls = calls;
  spans_.push_back(std::move(s));
}

std::map<std::string, double> Tracer::self_ms_by_layer(
    const std::vector<std::int32_t>& roots) const {
  // Spans are appended in open order, so every child follows its parent:
  // one forward pass finds each span's root and its children's total.
  std::vector<std::int32_t> root(spans_.size(), -1);
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent < 0) {
      root[i] = static_cast<std::int32_t>(i);
    } else {
      const auto p = static_cast<std::size_t>(s.parent);
      root[i] = root[p];
      child_ns[p] += s.end_ns - s.start_ns;
    }
  }
  std::vector<bool> wanted(spans_.size(), false);
  for (const std::int32_t r : roots) wanted[static_cast<std::size_t>(r)] = true;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (root[i] < 0 || !wanted[static_cast<std::size_t>(root[i])]) continue;
    const Span& s = spans_[i];
    out[s.layer] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  JsonValue list = JsonValue::array();
  for (const Span& s : spans_) {
    JsonValue j = JsonValue::object();
    j.set("name", JsonValue(s.name));
    j.set("layer", JsonValue(s.layer));
    j.set("start_ns", JsonValue(static_cast<std::int64_t>(s.start_ns)));
    j.set("end_ns", JsonValue(static_cast<std::int64_t>(s.end_ns)));
    j.set("parent", JsonValue(static_cast<std::int64_t>(s.parent)));
    if (s.calls > 0) j.set("calls", JsonValue(s.calls));
    list.push_back(std::move(j));
  }
  std::ofstream os(path);
  if (!os) return false;
  list.write(os);
  os << "\n";
  return static_cast<bool>(os);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  if (q == 0.5) {
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<std::size_t>(rank, 1)) - 1];
}

Run::Run(Options opt) : opt_(std::move(opt)) {
  // Worker threads inherit the mask of the thread that starts them, so
  // only a run without a worker pool may pin its one thread.
  cpu_set_t set;
  if (opt_.threads == 1 && sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
  if (cpus_.size() < 2) cpus_.clear();
}

void Run::next_cpu() {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_cpu_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof one, &one);  // best effort: a refusal only
                                           // leaves the thread where it is
}

void Run::sample(const std::string& name, double value) {
  samples_[tracer_.enabled() ? 1 : 0][name].push_back(value);
}

void Run::set(const std::string& name, double value) { values_[name] = value; }

void Run::check(const std::string& name, bool ok, const std::string& detail) {
  checks_.push_back({name, ok, detail});
  ops(1, ok ? 0 : 1);
}

void Run::setup(const std::function<void()>& setup) {
  std::vector<double> secs;
  double total_s = 0;
  while (secs.size() < 3 || (total_s < 2 && secs.size() < 51)) {
    // A traced run records the spans of its first set-up only.
    tracer_.set_enabled(opt_.trace && secs.empty());
    next_cpu();
    Scope s(tracer_, "setup", "bench");
    setup();
    secs.push_back(s.stop_ms() / 1e3);
    total_s += secs.back();
    tracer_.set_enabled(false);
  }
  set("setup_s", median(secs));
}

void Run::measure(const std::function<std::uint64_t()>& round,
                  int min_rounds) {
  std::vector<double> wall[2];
  std::vector<std::int32_t> traced_roots;
  std::vector<double> rates;
  const auto phase = [&](bool traced, double seconds) {
    tracer_.set_enabled(traced);
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    for (int n = 0; n < min_rounds || now_ns() < deadline; ++n) {
      next_cpu();
      Scope s(tracer_, "round", "bench");
      const std::uint64_t done = round();
      const double ms = s.stop_ms();
      wall[traced ? 1 : 0].push_back(ms);
      if (traced) {
        traced_roots.push_back(s.span());
      } else {
        rates.push_back(static_cast<double>(done) / (ms / 1e3));
      }
    }
    tracer_.set_enabled(false);
  };
  if (opt_.trace) {
    phase(false, opt_.seconds / 2);
    phase(true, opt_.seconds / 2);
  } else {
    phase(false, opt_.seconds);
  }
  // Rounds repeat comparable work, and on a shared host contention only
  // ever slows a round down: the fast end of the rates is the steadiest
  // estimate of the code's own speed, run after run.
  set("ops_per_s", percentile(rates, 0.9));
  set("round_ms", median(wall[0]));
  set("rounds", static_cast<double>(wall[0].size() + wall[1].size()));
  if (opt_.trace) {
    // Each layer's share of the traced rounds' wall time: the most a
    // faster layer could save there. The rounds' own self time is what no
    // layer span covers.
    double traced_ms = 0;
    for (const double ms : wall[1]) traced_ms += ms;
    std::map<std::string, double> self =
        tracer_.self_ms_by_layer(traced_roots);
    for (const char* layer : kLayers) {
      set(std::string("self.") + layer + ".pct",
          self[layer] / traced_ms * 100);
    }
    set("self.uncovered.pct", self["bench"] / traced_ms * 100);
    const double plain = median(wall[0]);
    set("trace.overhead_pct", (median(wall[1]) - plain) / plain * 100);
  }
}

void Run::record_memory() {
  namespace tel = canon::telemetry;
  if (const tel::MemoryAccountant* mem = tel::mem_accountant()) {
    for (const auto& [tag, stats] : mem->tags()) {
      set("mem." + tag + ".peak_bytes", static_cast<double>(stats.peak));
    }
    set("mem.total.peak_bytes", static_cast<double>(mem->peak_bytes()));
  }
}

int Run::finish() {
  set("peak_rss_mb", canon::telemetry::peak_rss_mb());
  if (!values_.count("mem.total.peak_bytes")) record_memory();
  // Untraced samples go last, so they win over traced ones of a name.
  for (const int mode : {1, 0}) {
    for (const auto& [name, values] : samples_[mode]) {
      set(name, median(values));
    }
  }
  set("fail_ratio", attempted_ ? static_cast<double>(failed_) /
                                     static_cast<double>(attempted_)
                               : 0);

  bool spans_ok = true;
  if (opt_.trace && !opt_.spans_path.empty()) {
    spans_ok = tracer_.write(opt_.spans_path);
    if (!spans_ok) {
      std::cerr << "perfbench: cannot write spans to " << opt_.spans_path
                << "\n";
    }
  }

  JsonValue checks = JsonValue::array();
  std::uint64_t checks_failed = 0;
  for (const Check& c : checks_) {
    std::cout << (c.ok ? "check ok   " : "check FAIL ") << c.name << ": "
              << c.detail << "\n";
    checks_failed += c.ok ? 0 : 1;
    JsonValue j = JsonValue::object();
    j.set("name", JsonValue(c.name));
    j.set("ok", JsonValue(c.ok));
    j.set("detail", JsonValue(c.detail));
    checks.push_back(std::move(j));
  }
  JsonValue metrics = JsonValue::object();
  for (const auto& [name, value] : values_) metrics.set(name, JsonValue(value));
  JsonValue out = JsonValue::object();
  out.set("workload", JsonValue(opt_.workload));
  out.set("seed", JsonValue(opt_.seed));
  out.set("threads", JsonValue(opt_.threads));
  out.set("trace", JsonValue(opt_.trace));
  out.set("attempted", JsonValue(attempted_));
  out.set("failed", JsonValue(failed_));
  out.set("checks", std::move(checks));
  out.set("metrics", std::move(metrics));
  out.write(std::cout);
  std::cout << std::endl;
  return failed_ == 0 && checks_failed == 0 && spans_ok ? 0 : 1;
}

}  // namespace perfbench
