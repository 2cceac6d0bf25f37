#include "overlay/message_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "telemetry/journal.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace.h"

namespace canon {

MessageSimulator::MessageSimulator(const OverlayNetwork& net,
                                   const LinkTable& links, Stepper stepper,
                                   HopCost latency, MessageSimConfig config)
    : net_(&net),
      links_(&links),
      stepper_(stepper ? std::move(stepper) : RingRouter(net, links).stepper()),
      latency_(std::move(latency)),
      config_(config),
      hop_guard_(hop_guard(net)),
      load_(net.size(), 0),
      busy_until_(net.size(), 0),
      max_depth_(net.size(), 0),
      dead_(net.size()),
      messages_counter_(telemetry::maybe_counter("message_sim.messages")),
      timeouts_counter_(telemetry::maybe_counter("message_sim.timeouts")),
      retries_counter_(telemetry::maybe_counter("message_sim.retries")),
      queue_hist_(telemetry::maybe_histogram("message_sim.queue_ms")) {
  if (config_.alpha < 1 || config_.alpha > kMaxStepCandidates) {
    throw std::invalid_argument(
        "MessageSimulator: alpha must be in [1, kMaxStepCandidates]");
  }
  if (config_.inbox_capacity < 1) {
    throw std::invalid_argument(
        "MessageSimulator: inbox_capacity must be >= 1");
  }
  // Negated comparisons, so a NaN fails them: it would put NaN event
  // times in the queue.
  if (!(config_.service_ms > 0) || !(config_.timeout_ms > 0)) {
    throw std::invalid_argument(
        "MessageSimulator: service_ms and timeout_ms must be > 0");
  }
  if (!(config_.backoff >= 1.0) || config_.retry_budget < 1) {
    throw std::invalid_argument(
        "MessageSimulator: backoff must be >= 1 and retry_budget >= 1");
  }
  if (config_.retry_budget >
      std::numeric_limits<decltype(Event::attempt)>::max() + 1) {
    throw std::invalid_argument(
        "MessageSimulator: retry_budget must fit the 16-bit attempt stamp");
  }
  if (!std::isfinite(config_.default_hop_ms) || config_.default_hop_ms < 0) {
    throw std::invalid_argument(
        "MessageSimulator: default_hop_ms must be finite and >= 0");
  }
}

void MessageSimulator::attach(const SimSinks& sinks) {
  sinks.validate();
  if (sinks.fault_plan != sinks_.fault_plan) {
    fault_schedule_.clear();
    next_fault_ = 0;
    rolling_drops_ = false;
    drop_p_ = 0;
    if (sinks.fault_plan) {
      const auto events = sinks.fault_plan->events();
      fault_schedule_.assign(events.begin(), events.end());
      std::stable_sort(fault_schedule_.begin(), fault_schedule_.end(),
                       [](const FaultEvent& a, const FaultEvent& b) {
                         return a.at < b.at;
                       });
      if (sinks.fault_plan->has_drops()) {
        rolling_drops_ = true;
        drop_p_ = sinks.fault_plan->drop_probability();
        drop_base_ = Rng(sinks.fault_plan->drop_seed());
      }
    }
  }
  if (sinks.trace != sinks_.trace && sinks.trace) {
    for (std::size_t i = 0; i < lookups_.size(); ++i) {
      if (trace_ids_[i] == kUntraced && lookups_[i].completed_ms < 0) {
        trace_ids_[i] =
            sinks.trace->begin_lookup(lookups_[i].from, lookups_[i].key);
      }
    }
  }
  if (sinks.timeseries != sinks_.timeseries && sinks.timeseries) {
    for (const LookupResult& lk : lookups_) {
      if (lk.completed_ms < 0) sinks.timeseries->lookup_issued(lk.issued_ms);
    }
  }
  sinks_ = sinks;
}

int MessageSimulator::submit(std::uint32_t from, NodeId key, double at_ms) {
  if (from >= net_->size()) {
    throw std::out_of_range("MessageSimulator::submit: bad node");
  }
  if (!std::isfinite(at_ms) || at_ms < now_) {
    throw std::invalid_argument(
        "MessageSimulator::submit: at_ms must be finite and >= now_ms()");
  }
  LookupResult result;
  result.from = from;
  result.key = key;
  result.issued_ms = at_ms;
  const int id = static_cast<int>(lookups_.size());
  lookups_.push_back(result);
  Lookup lk;
  lk.frontier = from;
  lk.path.push_back(from);
  state_.push_back(std::move(lk));
  trace_ids_.push_back(
      sinks_.trace ? sinks_.trace->begin_lookup(from, key) : kUntraced);
  if (sinks_.timeseries) sinks_.timeseries->lookup_issued(at_ms);
  push_event(at_ms, Kind::kStart, id);
  return id;
}

void MessageSimulator::push_event(double at_ms, Kind kind, std::int32_t index,
                                  std::int32_t attempt) {
  Event ev;
  ev.key = time_key(at_ms);
  ev.index = index;
  ev.attempt = static_cast<std::uint16_t>(attempt);
  ev.kind = kind;
  queue_.push(ev);
  totals_.queue_high_water =
      std::max<std::uint64_t>(totals_.queue_high_water, queue_.size());
}

double MessageSimulator::link_ms(NodeIndex a, NodeIndex b) const {
  if (!latency_) return config_.default_hop_ms;
  const double ms = latency_(a, b);
  if (!(ms >= 0)) {
    throw std::invalid_argument(
        "MessageSimulator: HopCost returned a negative or NaN latency");
  }
  return ms;
}

void MessageSimulator::apply_faults_until(double now) {
  while (next_fault_ < fault_schedule_.size() &&
         static_cast<double>(fault_schedule_[next_fault_].at) <= now) {
    const FaultEvent& fe = fault_schedule_[next_fault_++];
    if (fe.kind == FaultEvent::Kind::kCrash) {
      dead_.kill(fe.node);
      if (sinks_.journal) {
        sinks_.journal->crash(fe.node, net_->id(fe.node), fe.at);
      }
    } else {
      dead_.revive(fe.node);
      if (sinks_.journal) {
        sinks_.journal->revive(fe.node, net_->id(fe.node), fe.at);
      }
    }
    if (sinks_.timeseries) {
      sinks_.timeseries->live_nodes(static_cast<double>(fe.at),
                                    static_cast<double>(live_nodes()));
    }
  }
}

void MessageSimulator::maybe_snapshot(double now) {
  if (!sinks_.journal || sinks_.snapshot_top_k <= 0) return;
  while (static_cast<double>(snapshots_emitted_ + 1) *
             sinks_.snapshot_window_ms <=
         now) {
    ++snapshots_emitted_;
    const double t =
        static_cast<double>(snapshots_emitted_) * sinks_.snapshot_window_ms;
    sinks_.journal->load_snapshot(
        t, telemetry::top_loaded_nodes(
               load_, static_cast<std::size_t>(sinks_.snapshot_top_k)));
  }
}

double MessageSimulator::service(NodeIndex node, double at_ms) {
  if (dead_.any() && dead_.dead(node)) return -1;
  // Inbox depth derived from the pending-work backlog: the node drains one
  // message per service_ms, so backlog / service_ms messages sit ahead of
  // this arrival.
  const double backlog = busy_until_[node] - at_ms;
  const std::uint32_t ahead =
      backlog <= 0 ? 0
                   : static_cast<std::uint32_t>(
                         std::ceil(backlog / config_.service_ms - 1e-9));
  if (ahead >= static_cast<std::uint32_t>(config_.inbox_capacity)) {
    ++totals_.inbox_drops;
    return -1;
  }
  max_depth_[node] = std::max(max_depth_[node], ahead + 1);
  const double start = std::max(at_ms, busy_until_[node]);
  busy_until_[node] = start + config_.service_ms;
  ++load_[node];
  ++totals_.serviced;
  if (messages_counter_) messages_counter_->inc();
  if (queue_hist_) queue_hist_->record_ms(start - at_ms);
  if (sinks_.timeseries) sinks_.timeseries->message(at_ms, start - at_ms);
  return start;
}

void MessageSimulator::start_lookup(std::int32_t lookup, double now) {
  Lookup& lk = state_[static_cast<std::size_t>(lookup)];
  LookupResult& result = lookups_[static_cast<std::size_t>(lookup)];
  // The source is frontier 0: it services the query injection itself,
  // then steps locally (no network legs).
  const double start = service(lk.frontier, now);
  if (start < 0) {  // dead or overloaded source: the query never enters
    complete(lookup, false, now, lk.frontier);
    return;
  }
  const double done = start + config_.service_ms;
  std::array<NodeIndex, kMaxStepCandidates> cands{};
  const StepResult step = stepper_(lk.frontier, result.key, lk.state, cands);
  if (step.done || step.count == 0) {
    complete(lookup, step.done && step.ok, done, lk.frontier);
    return;
  }
  lk.cands = cands;
  lk.cand_count = step.count;
  begin_round(lookup, done);
}

void MessageSimulator::begin_round(std::int32_t lookup, double now) {
  Lookup& lk = state_[static_cast<std::size_t>(lookup)];
  lk.launched = 0;
  lk.round_probes.fill(-1);
  const int fan = std::min(config_.alpha, static_cast<int>(lk.cand_count));
  for (int i = 0; i < fan; ++i) {
    launch_candidate(lookup, i, now);
  }
}

void MessageSimulator::launch_candidate(std::int32_t lookup,
                                        std::int32_t cand_index, double now) {
  Lookup& lk = state_[static_cast<std::size_t>(lookup)];
  Probe probe;
  probe.lookup = lookup;
  probe.round = lk.round;
  probe.cand_index = cand_index;
  probe.target = lk.cands[static_cast<std::size_t>(cand_index)];
  probe.sent_from = lk.frontier;
  const std::int32_t id = static_cast<std::int32_t>(probes_.size());
  probes_.push_back(probe);
  lk.round_probes[static_cast<std::size_t>(cand_index)] = id;
  lk.launched = cand_index + 1;
  send_probe(id, now);
}

void MessageSimulator::send_probe(std::int32_t probe_id, double now) {
  Probe& probe = probes_[static_cast<std::size_t>(probe_id)];
  Lookup& lk = state_[static_cast<std::size_t>(probe.lookup)];
  ++totals_.sent;
  bool request_lost = false;
  bool response_lost = false;
  if (rolling_drops_) {
    // One forked stream per message attempt: draw both legs up front so
    // the pattern is a pure function of (drop seed, lookup, attempt).
    Rng msg_rng = drop_base_.fork(static_cast<std::uint64_t>(probe.lookup))
                      .fork(lk.attempt_seq);
    request_lost = msg_rng.uniform_double() < drop_p_;
    response_lost = msg_rng.uniform_double() < drop_p_;
  }
  ++lk.attempt_seq;
  if (request_lost) {
    ++totals_.link_drops;
  } else {
    push_event(now + link_ms(probe.sent_from, probe.target), Kind::kArrive,
               probe_id, probe.attempt);
  }
  // The response-leg verdict rides in the probe so kArrive can apply it.
  probe.response_lost = response_lost;
  probe.result = StepResult{};
  probe.state_after = 0;
  const double deadline =
      config_.timeout_ms *
      std::pow(config_.backoff, static_cast<double>(probe.attempt));
  push_event(now + deadline, Kind::kTimeout, probe_id, probe.attempt);
}

void MessageSimulator::on_arrive(std::int32_t probe_id, std::int32_t attempt,
                                 double now) {
  Probe& probe = probes_[static_cast<std::size_t>(probe_id)];
  // The request is on the wire regardless of lookup progress: stale
  // probes still consume the target's service capacity.
  const double start = service(probe.target, now);
  if (start < 0) return;  // dead node or inbox overflow: timeout recovers
  const Lookup& lk = state_[static_cast<std::size_t>(probe.lookup)];
  if (!lookup_open(probe.lookup) || probe.round != lk.round ||
      probe.responded || probe.failed || probe.attempt != attempt) {
    return;  // stale: serviced, but nobody is waiting for the verdict
  }
  if (probe.response_lost) {
    ++totals_.link_drops;
    return;
  }
  std::uint64_t state_copy = lk.state;
  std::array<NodeIndex, kMaxStepCandidates> cands{};
  const StepResult step = stepper_(
      probe.target, lookups_[static_cast<std::size_t>(probe.lookup)].key,
      state_copy, cands);
  probe.result = step;
  probe.state_after = state_copy;
  probe.next_cands = cands;
  probe.inbox_ms = static_cast<float>(start - now);
  const double done = start + config_.service_ms;
  push_event(done + link_ms(probe.target, probe.sent_from), Kind::kResponse,
             probe_id, attempt);
}

void MessageSimulator::on_response(std::int32_t probe_id,
                                   std::int32_t attempt, double now) {
  Probe& probe = probes_[static_cast<std::size_t>(probe_id)];
  const Lookup& lk = state_[static_cast<std::size_t>(probe.lookup)];
  if (!lookup_open(probe.lookup) || probe.round != lk.round ||
      probe.responded || probe.failed || probe.attempt != attempt) {
    return;  // a retry superseded this attempt: its late response is noise
  }
  probe.responded = true;
  check_round(probe.lookup, now);
}

void MessageSimulator::on_timeout(std::int32_t probe_id, std::int32_t attempt,
                                  double now) {
  Probe& probe = probes_[static_cast<std::size_t>(probe_id)];
  Lookup& lk = state_[static_cast<std::size_t>(probe.lookup)];
  if (!lookup_open(probe.lookup) || probe.round != lk.round ||
      probe.responded || probe.failed || probe.attempt != attempt) {
    return;  // stale stamp: a retry superseded this deadline
  }
  ++totals_.timeouts;
  if (timeouts_counter_) timeouts_counter_->inc();
  ++lookups_[static_cast<std::size_t>(probe.lookup)].timeouts;
  if (probe.attempt + 1 < config_.retry_budget) {
    ++probe.attempt;
    ++totals_.retries;
    if (retries_counter_) retries_counter_->inc();
    ++lookups_[static_cast<std::size_t>(probe.lookup)].retries;
    send_probe(probe_id, now);
    return;
  }
  probe.failed = true;
  // launch_candidate grows probes_, which invalidates `probe`.
  const std::int32_t lookup = probe.lookup;
  if (lk.launched < lk.cand_count) launch_candidate(lookup, lk.launched, now);
  check_round(lookup, now);
}

void MessageSimulator::check_round(std::int32_t lookup, double now) {
  Lookup& lk = state_[static_cast<std::size_t>(lookup)];
  // The frontier advances via the best-ranked candidate still in play:
  // the round is decided only once every better-ranked candidate has
  // permanently failed and that candidate has responded.
  for (std::int32_t i = 0; i < lk.cand_count; ++i) {
    if (i >= lk.launched) return;  // not launched yet: wait
    const Probe& probe =
        probes_[static_cast<std::size_t>(lk.round_probes[
            static_cast<std::size_t>(i)])];
    if (probe.failed) continue;
    if (probe.responded) {
      advance(lookup, lk.round_probes[static_cast<std::size_t>(i)], now);
    }
    return;  // best-ranked survivor still waiting for its response
  }
  // Every candidate permanently failed: the lookup is lost.
  complete(lookup, false, now, lk.frontier);
}

void MessageSimulator::advance(std::int32_t lookup, std::int32_t probe_id,
                               double now) {
  Lookup& lk = state_[static_cast<std::size_t>(lookup)];
  LookupResult& result = lookups_[static_cast<std::size_t>(lookup)];
  const Probe& probe = probes_[static_cast<std::size_t>(probe_id)];
  const std::uint64_t trace_id = trace_ids_[static_cast<std::size_t>(lookup)];
  if (sinks_.trace && trace_id != kUntraced) {
    telemetry::HopRecord hop;
    hop.lookup = trace_id;
    hop.from = lk.frontier;
    hop.to = probe.target;
    hop.hop_index = result.hops;
    hop.level = net_->lca_level(lk.frontier, probe.target);
    hop.candidates = static_cast<std::uint32_t>(lk.cand_count);
    hop.queue_ms = probe.inbox_ms;
    hop.hop_ms = link_ms(probe.sent_from, probe.target);
    sinks_.trace->on_hop(hop);
  }
  lk.frontier = probe.target;
  lk.state = probe.state_after;
  lk.path.push_back(probe.target);
  ++result.hops;
  ++lk.round;
  if (probe.result.done) {
    complete(lookup, probe.result.ok, now, lk.frontier);
    return;
  }
  if (result.hops >= hop_guard_) {
    complete(lookup, false, now, lk.frontier);
    return;
  }
  lk.cands = probe.next_cands;
  lk.cand_count = probe.result.count;
  begin_round(lookup, now);
}

void MessageSimulator::complete(std::int32_t lookup, bool ok, double now,
                                NodeIndex terminal) {
  Lookup& lk = state_[static_cast<std::size_t>(lookup)];
  LookupResult& result = lookups_[static_cast<std::size_t>(lookup)];
  result.completed_ms = now;
  result.ok = ok;
  if (!ok) ++totals_.failures;
  const std::uint64_t trace_id = trace_ids_[static_cast<std::size_t>(lookup)];
  if (sinks_.trace && trace_id != kUntraced) {
    sinks_.trace->end_lookup(trace_id, ok, terminal);
  }
  if (sinks_.journal && !ok) {
    sinks_.journal->lookup_failure(result.from, result.key, result.hops);
  }
  if (sinks_.timeseries) {
    sinks_.timeseries->lookup_completed(now, ok, now - result.issued_ms);
  }
  if (sinks_.load) {
    sinks_.load->observe(lk.path, ok, result.key, load_shard_);
  }
}

void MessageSimulator::run() {
  if (sinks_.timeseries) {
    sinks_.timeseries->live_nodes(now_, static_cast<double>(live_nodes()));
  }
  while (!queue_.empty()) {
    const Event ev = queue_.pop();
    now_ = key_time(ev.key);
    apply_faults_until(now_);
    maybe_snapshot(now_);
    switch (ev.kind) {
      case Kind::kStart:
        ++totals_.start_events;
        start_lookup(ev.index, now_);
        break;
      case Kind::kArrive:
        ++totals_.arrive_events;
        on_arrive(ev.index, ev.attempt, now_);
        break;
      case Kind::kResponse:
        ++totals_.response_events;
        on_response(ev.index, ev.attempt, now_);
        break;
      case Kind::kTimeout:
        ++totals_.timeout_events;
        on_timeout(ev.index, ev.attempt, now_);
        break;
    }
  }
  if (sinks_.load) {
    sinks_.load->merge(load_shard_);
    load_shard_ = telemetry::LoadAccountant::Shard{};
  }
  if (sinks_.journal && sinks_.snapshot_top_k > 0) {
    sinks_.journal->load_snapshot(
        now_, telemetry::top_loaded_nodes(
                  load_, static_cast<std::size_t>(sinks_.snapshot_top_k)));
  }
}

double lookup_latency_percentile(
    std::span<const MessageSimulator::LookupResult> lookups, double q) {
  std::vector<double> latencies;
  latencies.reserve(lookups.size());
  for (const auto& lk : lookups) {
    if (lk.completed_ms >= 0) latencies.push_back(lk.latency_ms());
  }
  if (latencies.empty()) return 0;
  std::sort(latencies.begin(), latencies.end());
  const double clamped = std::min(std::max(q, 0.0), 1.0);
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(latencies.size())));
  if (rank == 0) rank = 1;
  return latencies[rank - 1];
}

}  // namespace canon
