// BenchReport: the BENCH_<name>.json every bench writes must parse with the
// strict telemetry parser and carry the schema_version 1 layout documented
// in docs/OBSERVABILITY.md, with a finite summary.
#include <gtest/gtest.h>

#include <cmath>

#include "bench_util.hpp"
#include "telemetry/json.hpp"

namespace tcc::bench {
namespace {

TEST(BenchReport, JsonFollowsSchemaVersion1) {
  BenchReport report("fig7_latency", "half_rtt", "ns");
  report.config("topology", "cable");
  report.config("iters", 200);
  for (const double ns : {209.0, 231.0, 622.0}) report.add_sample(ns);
  report.add_row({BenchReport::num("payload_bytes", 48), BenchReport::num("tccluster_ns", 209.0)});

  auto doc = telemetry::json_parse(report.json());
  ASSERT_TRUE(doc.ok()) << doc.error().to_string();
  const telemetry::JsonValue& root = doc.value();
  ASSERT_TRUE(root.is_object());
  ASSERT_NE(root.find("schema_version"), nullptr);
  EXPECT_EQ(root.find("schema_version")->number, 1.0);
  ASSERT_NE(root.find("bench"), nullptr);
  EXPECT_EQ(root.find("bench")->str, "fig7_latency");
  for (const char* key : {"config", "summary", "series"}) {
    EXPECT_NE(root.find(key), nullptr) << "missing " << key;
  }
  const telemetry::JsonValue* summary = root.find("summary");
  ASSERT_NE(summary, nullptr);
  for (const char* key : {"count", "mean", "p50", "p99", "min", "max"}) {
    const telemetry::JsonValue* v = summary->find(key);
    ASSERT_NE(v, nullptr) << "summary missing " << key;
    EXPECT_TRUE(v->is_number() && std::isfinite(v->number)) << "summary." << key;
  }
  EXPECT_EQ(summary->find("count")->number, 3.0);
  ASSERT_TRUE(root.find("series")->is_array());
  EXPECT_EQ(root.find("series")->array.size(), 1u);
}

}  // namespace
}  // namespace tcc::bench
