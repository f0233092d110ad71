#include "controller/journal.h"

#include "obs/metrics.h"
#include "util/clock.h"
#include "util/fs.h"

namespace arrow::ctrl {

namespace {

// File "ARJL" version 1 (util/fs.h's checksummed layout; the fields are in
// docs/file-formats.md). The payload:
//
//   flags         u8 (bit0 = in_flight, bit1 = has_plan)
//   run id        string
//   topo hash     u64
//   scenario hash u64
//   plan (only when has_plan):
//     scheme      string
//     flows       u64 count, then per flow:
//                   admitted f64, tunnel count u64, that many alloc f64s
constexpr util::FileFormat kFormat{{'A', 'R', 'J', 'L'}, 1};
constexpr std::uint8_t kFlagInFlight = 1u << 0;
constexpr std::uint8_t kFlagHasPlan = 1u << 1;

std::string serialize(const JournalState& state) {
  std::string buf;
  std::uint8_t flags = 0;
  if (state.in_flight) flags |= kFlagInFlight;
  if (state.has_plan) flags |= kFlagHasPlan;
  util::put_u8(buf, flags);
  util::put_str(buf, state.run_id);
  util::put_u64(buf, state.topo_hash);
  util::put_u64(buf, state.scenario_hash);
  if (state.has_plan) {
    util::put_str(buf, state.plan.scheme);
    util::put_u64(buf, state.plan.alloc.size());
    for (std::size_t f = 0; f < state.plan.alloc.size(); ++f) {
      util::put_f64(buf, f < state.plan.admitted.size()
                             ? state.plan.admitted[f]
                             : 0.0);
      util::put_u64(buf, state.plan.alloc[f].size());
      for (double a : state.plan.alloc[f]) util::put_f64(buf, a);
    }
  }
  return buf;
}

}  // namespace

JournalState StateJournal::load() const {
  const auto payload = util::read_checksummed_file(path_, kFormat);
  if (!payload) return {};
  util::ByteReader r(*payload);
  JournalState state;
  const std::uint8_t flags = r.u8();
  state.in_flight = (flags & kFlagInFlight) != 0;
  state.has_plan = (flags & kFlagHasPlan) != 0;
  state.run_id = r.str();
  state.topo_hash = r.u64();
  state.scenario_hash = r.u64();
  if (state.has_plan) {
    state.plan.scheme = r.str();
    const std::uint64_t flows = r.u64();
    if (!r.ok() || flows > r.remaining() / 16u) return {};
    state.plan.admitted.reserve(static_cast<std::size_t>(flows));
    state.plan.alloc.reserve(static_cast<std::size_t>(flows));
    for (std::uint64_t f = 0; f < flows; ++f) {
      state.plan.admitted.push_back(r.f64());
      const std::uint64_t tunnels = r.u64();
      if (!r.ok() || tunnels > r.remaining() / 8u) return {};
      std::vector<double> alloc;
      alloc.reserve(static_cast<std::size_t>(tunnels));
      for (std::uint64_t t = 0; t < tunnels; ++t) alloc.push_back(r.f64());
      state.plan.alloc.push_back(std::move(alloc));
    }
  }
  if (!r.done()) return {};
  return state;
}

bool StateJournal::begin_run(const std::string& run_id,
                             std::uint64_t topo_hash,
                             std::uint64_t scenario_hash) {
  state_.in_flight = true;
  state_.run_id = run_id;
  state_.topo_hash = topo_hash;
  state_.scenario_hash = scenario_hash;
  return flush();
}

bool StateJournal::record_plan(const JournalPlan& plan) {
  state_.has_plan = true;
  state_.plan = plan;
  return flush();
}

bool StateJournal::end_run() {
  state_.in_flight = false;
  return flush();
}

bool StateJournal::flush() {
  auto& reg = obs::Registry::global();
  static obs::Counter& writes = reg.counter("arrow_journal_writes_total");
  static obs::Counter& errors =
      reg.counter("arrow_journal_write_errors_total");
  static obs::Histogram& seconds =
      reg.histogram("arrow_journal_write_seconds");
  const double t0 = util::mono_now_s();
  const bool ok =
      util::write_checksummed_file(path_, kFormat, serialize(state_));
  seconds.observe(util::mono_now_s() - t0);
  if (ok) {
    ++writes_;
    writes.add();
  } else {
    ++write_errors_;
    errors.add();
  }
  return ok;
}

std::string StateJournal::file_in(const std::string& dir) {
  return dir + "/arrow_journal.bin";
}

}  // namespace arrow::ctrl
