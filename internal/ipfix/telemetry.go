package ipfix

import "spoofscope/internal/obs"

// registerCollector exposes one collector's CollectorStats through the
// registry, labeled collector=name. Every metric is func-backed over the
// same snapshot Stats() returns, so a scrape and a Stats() call can never
// disagree.
func registerCollector(m *obs.Registry, name string, stats func() CollectorStats) {
	label := obs.Label{Name: "collector", Value: name}
	counter := func(metric, help string, field func(CollectorStats) int) {
		m.CounterFunc(metric, help, func() uint64 { return uint64(field(stats())) }, label)
	}
	m.GaugeFunc("spoofscope_collector_connections",
		"Accepted exporter connections (TCP only; zero for UDP and files).",
		func() float64 { return float64(stats().Connections) }, label)
	counter("spoofscope_collector_flows_total",
		"Flows delivered to the collector callback.",
		func(s CollectorStats) int { return s.Flows })
	counter("spoofscope_collector_malformed_total",
		"Framed-but-undecodable messages or datagrams skipped.",
		func(s CollectorStats) int { return s.Malformed })
	counter("spoofscope_collector_disconnects_total",
		"Connections torn down by transport, framing, or deadline errors.",
		func(s CollectorStats) int { return s.Disconnects })
	counter("spoofscope_collector_messages_total",
		"IPFIX messages decoded.",
		func(s CollectorStats) int { return s.Messages })
	counter("spoofscope_collector_records_decoded_total",
		"Data records decoded and delivered.",
		func(s CollectorStats) int { return s.RecordsDecoded })
	counter("spoofscope_collector_records_skipped_total",
		"Data records dropped for unknown templates or short reads.",
		func(s CollectorStats) int { return s.RecordsSkipped })
}

// Instrument registers the collector's health counters with t's registry
// under collector=name and journals connection failures. Call before ServeBatch.
func (c *TCPCollector) Instrument(t *obs.Telemetry, name string) {
	if t == nil {
		return
	}
	c.journal = t.Journal
	registerCollector(t.Metrics, name, c.Stats)
}

// Instrument registers the collector's health counters with t's registry
// under collector=name. Call before ServeBatch.
func (c *UDPCollector) Instrument(t *obs.Telemetry, name string) {
	if t == nil {
		return
	}
	registerCollector(t.Metrics, name, c.Stats)
}
