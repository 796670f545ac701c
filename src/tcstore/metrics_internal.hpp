// Internal to src/tcstore: the cached-reference bundle for every tcstore.*
// metric (same idiom as SvcMetrics in tcsvc/metrics_internal.hpp — one
// registry lookup per process, one non-atomic add per event afterwards). The
// public registration hook is register_tcstore_metrics() in store.hpp; the
// authoritative name list is the catalogue in docs/OBSERVABILITY.md.
#pragma once

#include "telemetry/metrics.hpp"

#if TCC_TELEMETRY_ENABLED

namespace tcc::tcstore::detail {

struct StoreMetrics {
  telemetry::Counter& incrs =
      telemetry::MetricsRegistry::global().counter("tcstore.store.incrs");
  telemetry::Counter& cas_ops =
      telemetry::MetricsRegistry::global().counter("tcstore.store.cas_ops");
  telemetry::Counter& cas_conflicts =
      telemetry::MetricsRegistry::global().counter("tcstore.store.cas_conflicts");
  telemetry::Counter& appends =
      telemetry::MetricsRegistry::global().counter("tcstore.store.appends");
  telemetry::Counter& append_overflows = telemetry::MetricsRegistry::global().counter(
      "tcstore.store.append_overflows");
  telemetry::Counter& sets =
      telemetry::MetricsRegistry::global().counter("tcstore.store.sets");
  telemetry::Counter& scans =
      telemetry::MetricsRegistry::global().counter("tcstore.store.scans");
  telemetry::Counter& scan_entries =
      telemetry::MetricsRegistry::global().counter("tcstore.store.scan_entries");
  telemetry::Counter& dedup_hits =
      telemetry::MetricsRegistry::global().counter("tcstore.store.dedup_hits");
  telemetry::Counter& dedup_pruned =
      telemetry::MetricsRegistry::global().counter("tcstore.store.dedup_pruned");
  telemetry::Gauge& dedup_records =
      telemetry::MetricsRegistry::global().gauge("tcstore.store.dedup_records");
  telemetry::Counter& replicated_ops = telemetry::MetricsRegistry::global().counter(
      "tcstore.store.replicated_ops");
  telemetry::Counter& ttl_swept =
      telemetry::MetricsRegistry::global().counter("tcstore.ttl.expired_swept");
  telemetry::Counter& mailbox_sends =
      telemetry::MetricsRegistry::global().counter("tcstore.mailbox.sends");
  telemetry::Counter& mailbox_delivered = telemetry::MetricsRegistry::global().counter(
      "tcstore.mailbox.delivered");
  telemetry::Counter& mailbox_duplicates = telemetry::MetricsRegistry::global().counter(
      "tcstore.mailbox.duplicates");
  telemetry::Counter& mailbox_dead_letters = telemetry::MetricsRegistry::global().counter(
      "tcstore.mailbox.dead_letters");
  telemetry::Counter& mailbox_wrong_home = telemetry::MetricsRegistry::global().counter(
      "tcstore.mailbox.wrong_home_rejects");
};

inline StoreMetrics& metrics() {
  static StoreMetrics m;
  return m;
}

}  // namespace tcc::tcstore::detail

#endif  // TCC_TELEMETRY_ENABLED
