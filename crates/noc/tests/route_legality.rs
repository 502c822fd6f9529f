//! Route-legality validation via the flit tracer: every head-flit
//! `flit.route` event names the router it leaves, so grouping them by
//! packet rebuilds each route. XY routes must be minimal and
//! dimension-ordered; west-first routes must be minimal and never turn
//! into the west direction.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers fail loudly on a broken fixture"
)]
#![allow(
    clippy::cast_possible_truncation,
    reason = "test inputs are small generated indices"
)]

use std::collections::BTreeMap;

use srlr_noc::traffic::Pattern;
use srlr_noc::{Coord, Network, NocConfig, RoutingAlgorithm};
use srlr_telemetry::{Obs, Value};

/// Runs a 6x6 mesh with the flit tracer on and returns each packet's
/// route: the routers its head flit left, in visit order.
fn traced_routes(routing: RoutingAlgorithm, load: f64, cycles: u64) -> BTreeMap<u64, Vec<Coord>> {
    let mut net = Network::new(
        NocConfig::paper_default()
            .with_size(6, 6)
            .with_routing(routing),
    );
    net.enable_flit_telemetry();
    let _ = net.run_warmup_and_measure(Pattern::UniformRandom, load, 0, cycles, &mut Obs::none());
    assert!(net.drain(50_000), "network must drain");
    let tel = net.take_flit_telemetry().expect("tracer was enabled");
    let mut routes: BTreeMap<u64, Vec<Coord>> = BTreeMap::new();
    for event in tel.events().iter().filter(|e| e.name == "flit.route") {
        let field = |key: &str| match event.fields.get(key) {
            Some(Value::U64(v)) => *v,
            other => panic!("flit.route field `{key}` is {other:?}"),
        };
        let coord = |key: &str| u16::try_from(field(key)).expect("mesh coordinate fits u16");
        routes
            .entry(field("packet"))
            .or_default()
            .push(Coord::new(coord("x"), coord("y")));
    }
    routes
}

/// Direction of one step, as (dx, dy).
fn step(a: Coord, b: Coord) -> (i32, i32) {
    (
        i32::from(b.x) - i32::from(a.x),
        i32::from(b.y) - i32::from(a.y),
    )
}

#[test]
fn xy_routes_are_minimal_and_dimension_ordered() {
    let mut checked = 0;
    for trace in traced_routes(RoutingAlgorithm::Xy, 0.05, 800).values() {
        if trace.len() < 2 {
            continue;
        }
        let (src, dst) = (trace[0], *trace.last().unwrap());
        // Minimal: exactly hop-distance steps.
        assert_eq!(
            trace.len() as u32 - 1,
            src.hop_distance(dst),
            "non-minimal XY route {trace:?}"
        );
        // Dimension-ordered: no x-movement after any y-movement.
        let mut seen_y = false;
        for w in trace.windows(2) {
            let (dx, dy) = step(w[0], w[1]);
            assert_eq!(dx.abs() + dy.abs(), 1, "non-unit step in {trace:?}");
            if dy != 0 {
                seen_y = true;
            }
            if dx != 0 {
                assert!(!seen_y, "x after y in XY route {trace:?}");
            }
        }
        checked += 1;
    }
    assert!(checked > 100, "too few traces to be meaningful: {checked}");
}

#[test]
fn west_first_routes_are_minimal_and_turn_legal() {
    let mut checked = 0;
    for trace in traced_routes(RoutingAlgorithm::WestFirst, 0.05, 800).values() {
        if trace.len() < 2 {
            continue;
        }
        let (src, dst) = (trace[0], *trace.last().unwrap());
        assert_eq!(
            trace.len() as u32 - 1,
            src.hop_distance(dst),
            "non-minimal west-first route {trace:?}"
        );
        // Turn model: once any non-west step occurs, never step west.
        let mut left_west_phase = false;
        for w in trace.windows(2) {
            let (dx, _) = step(w[0], w[1]);
            if dx >= 0 {
                left_west_phase = true;
            }
            if dx < 0 {
                assert!(!left_west_phase, "illegal turn into west in {trace:?}");
            }
        }
        checked += 1;
    }
    assert!(checked > 100, "too few traces: {checked}");
}

#[test]
fn tracing_is_opt_in() {
    let mut net = Network::new(NocConfig::paper_default().with_size(4, 4));
    let _ = net.run_warmup_and_measure(Pattern::UniformRandom, 0.05, 0, 200, &mut Obs::none());
    assert!(!net.flit_telemetry_enabled());
    assert!(
        net.take_flit_telemetry().is_none(),
        "no routes are recorded unless the tracer was enabled"
    );
}
