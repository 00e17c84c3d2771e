//! Halo-exchange observability: span + metrics recording into the
//! tracer and registry of the run the updater is attached to.

use comm::{rank_arrays, CornerPolicy, HaloUpdater, Orientation};
use comm::partition::Partition;
use machine::RunContext;

#[test]
fn exchange_records_spans_and_metrics_of_its_run() {
    let tracer = obs::Tracer::new();
    let metrics = obs::MetricsRegistry::new();
    let part = Partition::new(8, 2);
    let mut up = HaloUpdater::new(part.clone(), 2, CornerPolicy::Leave);
    up.set_run(RunContext {
        tracer: Some(tracer.clone()),
        metrics: Some(metrics.clone()),
        ..RunContext::default()
    });
    let mut arrays = rank_arrays(&part, 4, 2);
    let stats = up.exchange_scalar(&mut arrays);

    let spans = tracer.finished();
    let halo: Vec<_> = spans.iter().filter(|e| e.cat == "halo").collect();
    assert_eq!(halo.len(), 1);
    assert_eq!(halo[0].name, "halo_exchange");
    assert_eq!(halo[0].bytes, stats.total_bytes);
    assert_eq!(halo[0].points, stats.total_messages);

    for o in Orientation::ALL {
        let counted = metrics.counter_value("halo_bytes", &[("orientation", o.label())]);
        assert_eq!(counted, stats.bytes_for(o), "orientation {}", o.label());
    }
    assert_eq!(metrics.counter_value("halo_exchanges", &[]), 1);
    assert_eq!(metrics.counter_value("halo_messages", &[]), stats.total_messages);

    // Detached again: further exchanges leave no trace.
    let before = tracer.len();
    up.set_run(RunContext::default());
    up.exchange_scalar(&mut arrays);
    assert_eq!(tracer.len(), before);
    assert_eq!(metrics.counter_value("halo_exchanges", &[]), 1);
}
