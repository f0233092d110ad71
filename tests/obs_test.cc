// src/obs/: metrics registry, trace spans, JSON parser, RunReport.
#include <gtest/gtest.h>

#include <algorithm>
#include <clocale>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/solve_work.h"
#include "obs/trace.h"

namespace arrow {
namespace {

// ---- metrics ---------------------------------------------------------------

TEST(Metrics, CounterCountsExactlyUnderConcurrency) {
  for (int threads : {1, 2, 8}) {
    obs::Counter c;
    constexpr std::uint64_t kPerThread = 20000;
    std::vector<std::thread> ts;
    for (int t = 0; t < threads; ++t) {
      ts.emplace_back([&c] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
      });
    }
    for (auto& t : ts) t.join();
    EXPECT_EQ(c.value(), kPerThread * static_cast<std::uint64_t>(threads))
        << threads << " threads";
    c.reset();
    EXPECT_EQ(c.value(), 0u);
  }
}

TEST(Metrics, HistogramBucketsSumAndCountUnderConcurrency) {
  for (int threads : {1, 2, 8}) {
    obs::Histogram h({1.0, 2.0, 4.0});
    constexpr int kPerThread = 5000;
    std::vector<std::thread> ts;
    for (int t = 0; t < threads; ++t) {
      ts.emplace_back([&h] {
        for (int i = 0; i < kPerThread; ++i) {
          h.observe(0.5);  // bucket 0 (<= 1)
          h.observe(3.0);  // bucket 2 (<= 4)
          h.observe(9.0);  // +Inf bucket
        }
      });
    }
    for (auto& t : ts) t.join();
    const auto snap = h.snapshot();
    const auto n =
        static_cast<std::uint64_t>(kPerThread) *
        static_cast<std::uint64_t>(threads);
    ASSERT_EQ(snap.buckets.size(), 4u);
    EXPECT_EQ(snap.buckets[0], n);
    EXPECT_EQ(snap.buckets[1], 0u);
    EXPECT_EQ(snap.buckets[2], n);
    EXPECT_EQ(snap.buckets[3], n);
    EXPECT_EQ(snap.count, 3 * n);
    EXPECT_NEAR(snap.sum, static_cast<double>(n) * (0.5 + 3.0 + 9.0),
                1e-6 * static_cast<double>(n));
  }
}

TEST(Metrics, GaugeSetAndAdd) {
  obs::Gauge g;
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
}

TEST(Metrics, RegistryReturnsStableReferencesAndSnapshots) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("test_a_total");
  obs::Counter& a2 = reg.counter("test_a_total");
  EXPECT_EQ(&a, &a2);
  a.add(7);
  reg.gauge("test_depth").set(2.0);
  reg.histogram("test_seconds").observe(0.02);

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("test_a_total"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("test_depth"), 2.0);
  EXPECT_EQ(snap.histograms.at("test_seconds").count, 1u);
}

TEST(Metrics, PrometheusTextHasTypeLinesAndCumulativeBuckets) {
  obs::Registry reg;
  reg.counter("req_total").add(3);
  reg.histogram("lat_seconds", {0.1, 1.0}).observe(0.05);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE req_total counter"), std::string::npos);
  EXPECT_NE(text.find("req_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 1"), std::string::npos);
}

TEST(Metrics, JsonTextParsesWithOwnParser) {
  obs::Registry reg;
  reg.counter("c_total").add(2);
  reg.gauge("g").set(1.25);
  reg.histogram("h_seconds", {0.5}).observe(0.1);
  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::json_parse(reg.json_text(), &v, &err)) << err;
  ASSERT_TRUE(v.is_object());
  const obs::JsonValue* counters = v.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->num("c_total"), 2.0);
  const obs::JsonValue* gauges = v.find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->num("g"), 1.25);
  const obs::JsonValue* hists = v.find("histograms");
  ASSERT_NE(hists, nullptr);
  EXPECT_NE(hists->find("h_seconds"), nullptr);
}

// ---- trace spans -----------------------------------------------------------

TEST(Trace, DisabledSpansRecordNothing) {
  obs::clear_trace();
  obs::ScopedTraceEnable off(false);
  { OBS_SPAN("should_not_appear"); }
  EXPECT_EQ(obs::trace_span_count(), 0u);
}

TEST(Trace, NestedSpansRecordWithContainment) {
  obs::clear_trace();
  obs::ScopedTraceEnable on(true);
  {
    OBS_SPAN("outer");
    {
      OBS_SPAN("inner");
    }
  }
  EXPECT_EQ(obs::trace_span_count(), 2u);

  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::json_parse(obs::chrome_trace_json(), &v, &err)) << err;
  const obs::JsonValue* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 2u);
  const obs::JsonValue* outer = nullptr;
  const obs::JsonValue* inner = nullptr;
  for (const auto& e : events->array) {
    if (e.text("name") == "outer") outer = &e;
    if (e.text("name") == "inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // Same thread, inner nested within outer's [ts, ts+dur] window.
  EXPECT_DOUBLE_EQ(outer->num("tid"), inner->num("tid"));
  EXPECT_LE(outer->num("ts"), inner->num("ts"));
  EXPECT_GE(outer->num("ts") + outer->num("dur"),
            inner->num("ts") + inner->num("dur"));
}

TEST(Trace, ChromeTraceJsonSchema) {
  obs::clear_trace();
  obs::ScopedTraceEnable on(true);
  std::vector<std::thread> ts;
  for (int t = 0; t < 3; ++t) {
    ts.emplace_back([] { OBS_SPAN("worker_span"); });
  }
  for (auto& t : ts) t.join();
  { OBS_SPAN("main_span"); }

  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::json_parse(obs::chrome_trace_json(), &v, &err)) << err;
  ASSERT_TRUE(v.is_object());
  const obs::JsonValue* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 4u);
  for (const auto& e : events->array) {
    // The complete-event schema chrome://tracing and Perfetto load.
    EXPECT_TRUE(e.is_object());
    EXPECT_FALSE(e.text("name").empty());
    EXPECT_EQ(e.text("ph"), "X");
    EXPECT_EQ(e.text("cat"), "arrow");
    EXPECT_DOUBLE_EQ(e.num("pid"), 1.0);
    EXPECT_GE(e.num("tid"), 1.0);
    EXPECT_GE(e.num("ts"), 0.0);
    EXPECT_GE(e.num("dur"), 0.0);
  }
}

TEST(Trace, SpanCapturesEnableStateAtConstruction) {
  obs::clear_trace();
  obs::ScopedTraceEnable on(true);
  {
    obs::Span span("started_enabled");
    obs::set_trace_enabled(false);
  }  // still records: enabled at construction
  obs::set_trace_enabled(true);
  EXPECT_EQ(obs::trace_span_count(), 1u);
  obs::clear_trace();
}

// ---- JSON parser corner cases ---------------------------------------------

TEST(Json, ParsesScalarsArraysObjectsAndEscapes) {
  obs::JsonValue v;
  ASSERT_TRUE(obs::json_parse(
      R"({"a": [1, -2.5e1, true, false, null], "s": "x\n\"y\""})", &v));
  const obs::JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 5u);
  EXPECT_DOUBLE_EQ(a->array[0].number, 1.0);
  EXPECT_DOUBLE_EQ(a->array[1].number, -25.0);
  EXPECT_TRUE(a->array[2].boolean);
  EXPECT_EQ(v.text("s"), "x\n\"y\"");
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  // \uXXXX must decode to the code point's UTF-8 bytes. The old parser kept
  // only the low byte ("café" came back as "caf\xE9" Latin-1, CJK and
  // anything above U+00FF was silently mangled).
  obs::JsonValue v;
  ASSERT_TRUE(obs::json_parse(R"({"s": "café"})", &v));
  EXPECT_EQ(v.text("s"), "caf\xC3\xA9");  // U+00E9 is two UTF-8 bytes

  ASSERT_TRUE(obs::json_parse(R"(["日本"])", &v));
  EXPECT_EQ(v.array[0].str, "\xE6\x97\xA5\xE6\x9C\xAC");  // 日本

  // Surrogate pair: U+1F600 arrives as "\\ud83d\\ude00" and must combine
  // into one 4-byte sequence.
  ASSERT_TRUE(obs::json_parse(R"(["\ud83d\ude00"])", &v));
  EXPECT_EQ(v.array[0].str, "\xF0\x9F\x98\x80");

  // A high surrogate without its partner is malformed input, not garbage
  // output.
  EXPECT_FALSE(obs::json_parse(R"(["\ud83d"])", &v));
  EXPECT_FALSE(obs::json_parse(R"(["\ud83dx"])", &v));
  EXPECT_FALSE(obs::json_parse(R"(["\ude00"])", &v));  // lone low surrogate
}

TEST(Json, EmitRoundTripsValuesAndUtf8) {
  obs::JsonValue v;
  ASSERT_TRUE(obs::json_parse(
      "{\"pi\": 3.141592653589793, \"s\": \"caf\xC3\xA9 \xE6\x97\xA5\","
      " \"neg\": -0.5, \"big\": 1e300, \"t\": true, \"n\": null,"
      " \"a\": [1, 2.5, \"x\"]}",
      &v));
  const std::string emitted = obs::json_emit(v);
  // Single line (NDJSON framing depends on this), and raw UTF-8 passes
  // through unescaped.
  EXPECT_EQ(emitted.find('\n'), std::string::npos);
  EXPECT_NE(emitted.find("caf\xC3\xA9"), std::string::npos);

  obs::JsonValue back;
  ASSERT_TRUE(obs::json_parse(emitted, &back));
  EXPECT_DOUBLE_EQ(back.find("pi")->number, 3.141592653589793);
  EXPECT_DOUBLE_EQ(back.find("big")->number, 1e300);
  EXPECT_DOUBLE_EQ(back.find("neg")->number, -0.5);
  EXPECT_EQ(back.text("s"), v.text("s"));
  EXPECT_TRUE(back.find("t")->boolean);
  ASSERT_EQ(back.find("a")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(back.find("a")->array[1].number, 2.5);
}

TEST(Json, NumberIoIgnoresNumericLocale) {
  // Under a comma-decimal locale, strtod("1.5") stops at the dot and
  // snprintf("%g") prints "1,5" — either corrupts every float in the wire
  // format. The parser and emitter must be locale-independent.
  const char* locale_found = nullptr;
  for (const char* name : {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8",
                           "fr_FR.utf8", "fr_FR"}) {
    if (std::setlocale(LC_NUMERIC, name) != nullptr) {
      locale_found = name;
      break;
    }
  }
  if (locale_found == nullptr) {
    GTEST_SKIP() << "no comma-decimal locale installed in this image";
  }
  obs::JsonValue v;
  const bool parsed = obs::json_parse("{\"x\": 1.5, \"y\": -2.25e3}", &v);
  const std::string emitted = parsed ? obs::json_emit(v) : "";
  std::setlocale(LC_NUMERIC, "C");  // restore before asserting
  ASSERT_TRUE(parsed);
  EXPECT_DOUBLE_EQ(v.find("x")->number, 1.5);
  EXPECT_DOUBLE_EQ(v.find("y")->number, -2250.0);
  EXPECT_NE(emitted.find("1.5"), std::string::npos) << emitted;
  EXPECT_EQ(emitted.find("1,5"), std::string::npos) << emitted;

  obs::JsonValue back;
  ASSERT_TRUE(obs::json_parse(emitted, &back));
  EXPECT_DOUBLE_EQ(back.find("x")->number, 1.5);
}

TEST(Json, RejectsMalformedInput) {
  obs::JsonValue v;
  EXPECT_FALSE(obs::json_parse("", &v));
  EXPECT_FALSE(obs::json_parse("{", &v));
  EXPECT_FALSE(obs::json_parse("[1,]", &v));
  EXPECT_FALSE(obs::json_parse("{\"a\": 1} trailing", &v));
  std::string err;
  EXPECT_FALSE(obs::json_parse("{\"a\": }", &v, &err));
  EXPECT_FALSE(err.empty());
}

// std::from_chars reads nan and infinities; JSON has neither, so the reader
// refuses them and the writers emit null in their place.
TEST(Json, RefusesNonFiniteNumbersAndWritesThemAsNull) {
  obs::JsonValue v;
  EXPECT_FALSE(obs::json_parse("nan", &v));
  EXPECT_FALSE(obs::json_parse("[inf, -infinity]", &v));
  EXPECT_FALSE(obs::json_parse(R"({"version": 7, "availability": nan})", &v));
  EXPECT_FALSE(obs::json_parse("-", &v));
  EXPECT_FALSE(obs::json_parse("+1", &v));
  ASSERT_TRUE(obs::json_parse("[-0.5, 0, 2e3]", &v));

  obs::JsonValue arr;
  arr.type = obs::JsonValue::Type::kArray;
  for (const double x : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(), 1.5}) {
    obs::JsonValue n;
    n.type = obs::JsonValue::Type::kNumber;
    n.number = x;
    arr.array.push_back(n);
  }
  EXPECT_EQ(obs::json_emit(arr), "[null,null,null,1.5]");

  obs::RunReport out;
  out.te_runs = 99;  // sentinel: must stay untouched on failure
  EXPECT_FALSE(obs::RunReport::from_json(
      R"({"version": 7, "availability": nan})", &out));
  EXPECT_EQ(out.te_runs, 99);
  obs::RunReport nan_report;
  nan_report.availability = std::numeric_limits<double>::quiet_NaN();
  const std::string text = nan_report.to_json();
  EXPECT_NE(text.find("\"availability\": null"), std::string::npos) << text;
  ASSERT_TRUE(obs::RunReport::from_json(text, &out));
  EXPECT_EQ(out.availability, 0.0);
}

// ---- SolveWork -------------------------------------------------------------

TEST(SolveWork, PlusEqualsSumsEveryField) {
  obs::SolveWork a;
  a.simplex_iterations = 1;
  a.pricing_candidates = 2;
  a.decomposition_rounds = 3;
  a.decomposition_cuts = 4;
  obs::SolveWork b;
  b.simplex_iterations = 10;
  b.pricing_candidates = 200;
  b.decomposition_rounds = 3000;
  b.decomposition_cuts = 40000;
  a += b;
  EXPECT_EQ(a.simplex_iterations, 11);
  EXPECT_EQ(a.pricing_candidates, 202);
  EXPECT_EQ(a.decomposition_rounds, 3003);
  EXPECT_EQ(a.decomposition_cuts, 40004);
  // The right-hand side is left as it was.
  EXPECT_EQ(b.simplex_iterations, 10);
  EXPECT_EQ(b.pricing_candidates, 200);
  EXPECT_EQ(b.decomposition_rounds, 3000);
  EXPECT_EQ(b.decomposition_cuts, 40000);
}

// ---- RunReport -------------------------------------------------------------

// Every field set to a distinct non-default value, so a key that is
// dropped, swapped with another or read into the wrong member shows.
obs::RunReport sample_report() {
  obs::RunReport r;
  r.run_id = "unit";
  r.scheme = "ARROW";
  r.traffic_matrices = 4;
  r.scenarios = 17;
  r.te_runs = 5;
  r.ladder = {{"primary", 3}, {"relaxed-retry", 1}, {"ffc-fallback", 35},
              {"carry-forward", 36}, {"ecmp", 37}};
  r.degraded_periods = 2;
  r.deadline_overruns = 11;
  r.solver_timeouts = 12;
  r.backoff_retries = 14;
  r.canceled = true;
  r.journal_recovered = true;
  r.journal_prior_in_flight = true;
  r.journal_writes = 19;
  r.journal_write_errors = 21;
  r.simplex_iterations = 12345;
  r.pricing_candidates = 98765;
  r.decomposition_rounds = 7;
  r.decomposition_cuts = 13;
  r.warm_start_hits = 6;
  r.warm_start_stores = 9;
  r.basis_seeded = 22;
  r.basis_absorbed = 23;
  r.basis_evictions = 24;
  r.basis_save_errors = 25;
  r.cuts_handled = 26;
  r.cuts_with_plan = 27;
  r.unplanned_cuts = 28;
  r.emergency_restorations = 29;
  r.rwa_repairs = 30;
  r.rwa_scenarios_lost = 31;
  r.calibration_degraded = true;
  r.local_repairs = 32;
  r.local_repair_fallbacks = 33;
  r.local_repair_pivots = 4567;
  r.local_repair_seconds = 0.125;
  r.restorations = 34;
  r.restoration_p50_s = 8.25;
  r.restoration_p90_s = 9.5;
  r.restoration_p99_s = 10.75;
  r.restoration_max_s = 12.5;
  r.availability = 0.99987;
  return r;
}

// sample_report().to_json(), byte for byte: the key order, the nested
// ladder and latency objects and the number formats.
constexpr const char* kSampleReportJson = R"({
  "version": 7,
  "run_id": "unit",
  "scheme": "ARROW",
  "traffic_matrices": 4,
  "scenarios": 17,
  "te_runs": 5,
  "ladder": {"primary": 3, "relaxed-retry": 1, "ffc-fallback": 35, "carry-forward": 36, "ecmp": 37},
  "degraded_periods": 2,
  "deadline_overruns": 11,
  "solver_timeouts": 12,
  "backoff_retries": 14,
  "canceled": true,
  "journal_recovered": true,
  "journal_prior_in_flight": true,
  "journal_writes": 19,
  "journal_write_errors": 21,
  "simplex_iterations": 12345,
  "pricing_candidates": 98765,
  "decomposition_rounds": 7,
  "decomposition_cuts": 13,
  "warm_start_hits": 6,
  "warm_start_stores": 9,
  "basis_seeded": 22,
  "basis_absorbed": 23,
  "basis_evictions": 24,
  "basis_save_errors": 25,
  "cuts_handled": 26,
  "cuts_with_plan": 27,
  "unplanned_cuts": 28,
  "emergency_restorations": 29,
  "rwa_repairs": 30,
  "rwa_scenarios_lost": 31,
  "calibration_degraded": true,
  "local_repairs": 32,
  "local_repair_fallbacks": 33,
  "local_repair_pivots": 4567,
  "local_repair_seconds": 0.125,
  "restorations": 34,
  "restoration_latency_s": {"p50": 8.25, "p90": 9.5, "p99": 10.75, "max": 12.5},
  "availability": 0.99987
}
)";

TEST(RunReport, ToJsonIsPinned) {
  EXPECT_EQ(sample_report().to_json(), kSampleReportJson);
}

TEST(RunReport, JsonRoundTripPreservesEveryField) {
  const obs::RunReport in = sample_report();
  obs::RunReport out;
  ASSERT_TRUE(obs::RunReport::from_json(in.to_json(), &out));
  EXPECT_EQ(out.run_id, in.run_id);
  EXPECT_EQ(out.scheme, in.scheme);
  EXPECT_EQ(out.traffic_matrices, in.traffic_matrices);
  EXPECT_EQ(out.scenarios, in.scenarios);
  EXPECT_EQ(out.te_runs, in.te_runs);
  // JSON objects do not preserve member order; compare as sets.
  auto a = in.ladder;
  auto b = out.ladder;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  EXPECT_EQ(out.degraded_periods, in.degraded_periods);
  EXPECT_EQ(out.deadline_overruns, in.deadline_overruns);
  EXPECT_EQ(out.solver_timeouts, in.solver_timeouts);
  EXPECT_EQ(out.backoff_retries, in.backoff_retries);
  EXPECT_EQ(out.canceled, in.canceled);
  EXPECT_EQ(out.journal_recovered, in.journal_recovered);
  EXPECT_EQ(out.journal_prior_in_flight, in.journal_prior_in_flight);
  EXPECT_EQ(out.journal_writes, in.journal_writes);
  EXPECT_EQ(out.journal_write_errors, in.journal_write_errors);
  EXPECT_EQ(out.simplex_iterations, in.simplex_iterations);
  EXPECT_EQ(out.pricing_candidates, in.pricing_candidates);
  EXPECT_EQ(out.decomposition_rounds, in.decomposition_rounds);
  EXPECT_EQ(out.decomposition_cuts, in.decomposition_cuts);
  EXPECT_EQ(out.warm_start_hits, in.warm_start_hits);
  EXPECT_EQ(out.warm_start_stores, in.warm_start_stores);
  EXPECT_EQ(out.basis_seeded, in.basis_seeded);
  EXPECT_EQ(out.basis_absorbed, in.basis_absorbed);
  EXPECT_EQ(out.basis_evictions, in.basis_evictions);
  EXPECT_EQ(out.basis_save_errors, in.basis_save_errors);
  EXPECT_EQ(out.cuts_handled, in.cuts_handled);
  EXPECT_EQ(out.cuts_with_plan, in.cuts_with_plan);
  EXPECT_EQ(out.unplanned_cuts, in.unplanned_cuts);
  EXPECT_EQ(out.emergency_restorations, in.emergency_restorations);
  EXPECT_EQ(out.rwa_repairs, in.rwa_repairs);
  EXPECT_EQ(out.rwa_scenarios_lost, in.rwa_scenarios_lost);
  EXPECT_EQ(out.calibration_degraded, in.calibration_degraded);
  EXPECT_EQ(out.local_repairs, in.local_repairs);
  EXPECT_EQ(out.local_repair_fallbacks, in.local_repair_fallbacks);
  EXPECT_EQ(out.local_repair_pivots, in.local_repair_pivots);
  EXPECT_DOUBLE_EQ(out.local_repair_seconds, in.local_repair_seconds);
  EXPECT_EQ(out.restorations, in.restorations);
  EXPECT_DOUBLE_EQ(out.restoration_p50_s, in.restoration_p50_s);
  EXPECT_DOUBLE_EQ(out.restoration_p90_s, in.restoration_p90_s);
  EXPECT_DOUBLE_EQ(out.restoration_p99_s, in.restoration_p99_s);
  EXPECT_DOUBLE_EQ(out.restoration_max_s, in.restoration_max_s);
  EXPECT_DOUBLE_EQ(out.availability, in.availability);
}

TEST(RunReport, FromJsonRejectsWrongVersionAndGarbage) {
  obs::RunReport out;
  out.te_runs = 99;  // sentinel: must stay untouched on failure
  EXPECT_FALSE(obs::RunReport::from_json("not json", &out));
  EXPECT_FALSE(obs::RunReport::from_json("{\"version\": 999}", &out));
  // A complete v6 report, which still carries the presolve and sub-LP
  // fields, is refused rather than read with those fields dropped.
  std::string v6 = sample_report().to_json();
  const std::string v7_field = "\"version\": 7,";
  ASSERT_NE(v6.find(v7_field), std::string::npos);
  v6.replace(v6.find(v7_field), v7_field.size(), "\"version\": 6,");
  EXPECT_FALSE(obs::RunReport::from_json(v6, &out));
  EXPECT_EQ(out.te_runs, 99);
}

// A number outside an integer field's range saturates (an unchecked cast
// would be undefined), and a wrong-typed value reads as the default.
TEST(RunReport, FromJsonSaturatesOutOfRangeIntegers) {
  obs::RunReport out;
  ASSERT_TRUE(obs::RunReport::from_json(
      R"({"version": 7, "te_runs": 1e300, "scenarios": -1e300,)"
      R"( "basis_evictions": 1e300, "cuts_handled": "3"})",
      &out));
  EXPECT_EQ(out.te_runs, std::numeric_limits<int>::max());
  EXPECT_EQ(out.scenarios, std::numeric_limits<int>::min());
  EXPECT_EQ(out.basis_evictions, std::numeric_limits<long long>::max());
  EXPECT_EQ(out.cuts_handled, 0);
}

// Seeded mutation fuzzing of RunReport::from_json over the pinned report:
// byte flips, truncations, duplicated spans, and deleted quotes and braces,
// one to three per mutant. Every call returns true or false without
// crashing (the ASan/UBSan job runs this label); a refused input leaves
// *out untouched, and an accepted one writes JSON that reads back to the
// same bytes.
TEST(RunReport, FromJsonSurvivesMutatedInput) {
  const std::string pinned = kSampleReportJson;
  obs::RunReport sentinel = sample_report();
  sentinel.run_id = "sentinel";
  const std::string sentinel_json = sentinel.to_json();
  std::mt19937_64 rng(0x5eedULL);
  const auto below = [&rng](std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng() % n);
  };
  int accepted = 0;
  int refused = 0;
  for (int i = 0; i < 4000; ++i) {
    std::string text = pinned;
    const int mutations = 1 + static_cast<int>(rng() % 3);
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      switch (rng() % 4) {
        case 0:  // flip one bit of one byte
          text[below(text.size())] ^= static_cast<char>(1 << (rng() % 8));
          break;
        case 1:  // truncate
          text.resize(below(text.size()));
          break;
        case 2: {  // duplicate a span in place
          const std::size_t at = below(text.size());
          const std::size_t len = 1 + below(std::min<std::size_t>(
                                          64, text.size() - at));
          text.insert(at, text.substr(at, len));
          break;
        }
        default: {  // delete one quote or brace
          std::vector<std::size_t> marks;
          for (std::size_t k = 0; k < text.size(); ++k) {
            if (text[k] == '"' || text[k] == '{' || text[k] == '}') {
              marks.push_back(k);
            }
          }
          if (!marks.empty()) text.erase(marks[below(marks.size())], 1);
          break;
        }
      }
    }
    obs::RunReport out = sentinel;
    if (obs::RunReport::from_json(text, &out)) {
      ++accepted;
      obs::RunReport again;
      ASSERT_TRUE(obs::RunReport::from_json(out.to_json(), &again)) << text;
      EXPECT_EQ(again.to_json(), out.to_json()) << text;
    } else {
      ++refused;
      ASSERT_EQ(out.to_json(), sentinel_json) << text;
    }
  }
  // Both outcomes are exercised.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(refused, 100);
}

TEST(RunReport, EmitRunArtifactsWritesEverythingEnabled) {
  const std::string dir = ::testing::TempDir();
  obs::ObsConfig cfg;
  cfg.enabled = true;
  cfg.trace = true;
  cfg.dir = dir;
  cfg.run_id = "emit_test";
  obs::clear_trace();
  {
    obs::ScopedTraceEnable on(true);
    OBS_SPAN("emit_span");
  }
  ASSERT_TRUE(obs::emit_run_artifacts(cfg, sample_report()));

  obs::RunReport back;
  std::ifstream in(cfg.report_path());
  std::stringstream ss;
  ss << in.rdbuf();
  ASSERT_TRUE(obs::RunReport::from_json(ss.str(), &back));
  EXPECT_EQ(back.run_id, "unit");  // the report's id, not the filename's

  for (const std::string& p :
       {cfg.trace_path(), cfg.metrics_prom_path(), cfg.metrics_json_path()}) {
    std::ifstream f(p);
    EXPECT_TRUE(f.good()) << p;
  }
  std::remove(cfg.report_path().c_str());
  std::remove(cfg.trace_path().c_str());
  std::remove(cfg.metrics_prom_path().c_str());
  std::remove(cfg.metrics_json_path().c_str());
}

TEST(ObsConfig, ExplicitFieldsSurviveResolutionAndDirDefaults) {
  obs::ObsConfig cfg;
  cfg.enabled = true;
  cfg.trace = true;
  cfg.dir = "/tmp/somewhere";
  cfg.run_id = "r1";
  const obs::ObsConfig r = cfg.resolved();
  EXPECT_TRUE(r.enabled);
  EXPECT_TRUE(r.trace);
  EXPECT_EQ(r.dir, "/tmp/somewhere");
  EXPECT_EQ(r.report_path(), "/tmp/somewhere/report_r1.json");

  obs::ObsConfig empty;
  // With no env toggles set this stays disabled; dir defaults to ".".
  // (The suite does not set ARROW_OBS_DIR/ARROW_TRACE; CI jobs that do run
  // with a dedicated environment.)
  if (std::getenv("ARROW_OBS_DIR") == nullptr &&
      std::getenv("ARROW_TRACE") == nullptr) {
    const obs::ObsConfig re = empty.resolved();
    EXPECT_FALSE(re.enabled);
    EXPECT_EQ(re.dir, ".");
  }
}

}  // namespace
}  // namespace arrow
