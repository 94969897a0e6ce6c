"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo`` — deploy a small network, send readings, print what arrived;
* ``figures`` — regenerate the paper's figures as ASCII tables
  (``--fig all`` or a specific one: 1, 6, 7, 8, 9);
* ``experiments`` — the non-figure experiments (resilience, broadcast
  cost, attacks, LEAP weakness, timing, energy, ablations);
* ``inspect`` — deploy and print a cluster map + setup metrics;
* ``run-live`` — bring up a live deployment on a real transport
  (in-process loopback or UDP sockets), push a reporting workload and
  print the gateway's JSON status snapshot; ``--metrics-out m.jsonl``
  additionally streams telemetry (events + periodic samples + a final
  summary) as JSON Lines;
* ``serve`` — bring up a live deployment with the gateway query plane
  attached: an HTTP/JSON API (``/status``, ``/nodes``, ``/readings``,
  ``/metrics``, a cursor-resumable ``/updates`` stream) over a
  continuously reporting mesh, with optional ``--peer`` federation so
  several gateways each owning a mesh region answer for the whole
  deployment (see docs/GATEWAY.md);
* ``chaos`` — run a seeded fault-injection scenario on the live runtime
  (drop/duplicate/reorder/corrupt rates, crashes, partitions) and report
  the delivery ratio; ``--assert-delivery X`` exits nonzero below the
  bar, which is how the chaos-smoke CI job gates the reliability layer;
* ``churn`` — run a seeded lifecycle scenario: continuous node mobility
  plus sustained join/leave/revoke/refresh churn under injected faults,
  reporting delivery and re-clustering convergence;
  ``--assert-convergence`` exits nonzero when any documented bound is
  violated, which is how the churn-smoke CI job gates the lifecycle
  runtime (see docs/RUNTIME.md);
* ``metrics`` — work with exported telemetry streams
  (``metrics summarize m.jsonl`` folds one back into the shape
  ``SetupMetrics`` reports, see docs/TELEMETRY.md);
* ``lint`` — run ldplint, the AST static analyzer enforcing the paper's
  security invariants over ``src/repro`` (see docs/ANALYSIS.md).

All deployment commands accept ``--n``, ``--density`` and ``--seed``.
"""

from __future__ import annotations

import argparse
import sys


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=400, help="number of sensors")
    parser.add_argument("--density", type=float, default=12.0, help="mean neighbors/node")
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import SecureSensorNetwork

    ssn = SecureSensorNetwork.deploy(n=args.n, density=args.density, seed=args.seed)
    m = ssn.setup_metrics
    print(
        f"deployed {m.n} nodes (density {m.measured_density:.1f}): "
        f"{m.cluster_count} clusters, {m.mean_keys_per_node:.2f} keys/node, "
        f"{m.messages_per_node:.2f} setup msgs/node"
    )
    sources = [nid for nid in ssn.node_ids() if ssn.agent(nid).state.hops_to_bs > 0]
    for i, src in enumerate(sources[:: max(1, len(sources) // 5)][:5]):
        ssn.send_reading(src, f"reading-{i}".encode())
    ssn.run(30.0)
    for r in ssn.readings():
        print(f"  t={r.time:7.3f}s node {r.source:4d} -> {r.data.decode()}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments import (
        fig1_cluster_distribution,
        fig6_keys_per_node,
        fig7_cluster_size,
        fig8_clusterhead_fraction,
        fig9_setup_messages,
    )

    modules = {
        "1": lambda: fig1_cluster_distribution.run(n=args.n, seeds=range(args.runs)),
        "6": lambda: fig6_keys_per_node.run(n=args.n, seeds=range(args.runs)),
        "7": lambda: fig7_cluster_size.run(n=args.n, seeds=range(args.runs)),
        "8": lambda: fig8_clusterhead_fraction.run(n=args.n, seeds=range(args.runs)),
        "9": lambda: fig9_setup_messages.run(n=args.n, seeds=range(args.runs)),
    }
    wanted = modules.keys() if args.fig == "all" else [args.fig]
    for key in wanted:
        if key not in modules:
            print(f"unknown figure {key!r}; choose from {sorted(modules)} or 'all'")
            return 2
        print(modules[key]().render())
        print()
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import (
        ablations,
        attacks_table,
        broadcast_cost,
        energy_cost,
        leap_weakness,
        load_delivery,
        randkp_connectivity,
        refresh_vulnerability,
        resilience,
        scale_invariance,
        timing_security,
    )

    runners = {
        "broadcast": lambda: [broadcast_cost.run(n=args.n, density=args.density, seed=args.seed)],
        "resilience": lambda: [
            resilience.run(n=args.n, density=args.density, seed=args.seed),
            resilience.run_locality(n=args.n, density=args.density, seed=args.seed),
        ],
        "attacks": lambda: [attacks_table.run(n=min(args.n, 300), density=args.density, seed=args.seed)],
        "leap": lambda: [leap_weakness.run(n=args.n, density=args.density, seed=args.seed)],
        "scale": lambda: [scale_invariance.run()],
        "timing": lambda: [timing_security.run(n=args.n)],
        "energy": lambda: [
            energy_cost.run_setup_cost(n=args.n),
            energy_cost.run_reporting_cost(n=min(args.n, 300), seed=args.seed),
        ],
        "ablations": lambda: [
            ablations.run_timer(n=args.n),
            ablations.run_fusion(n=min(args.n, 300), seed=args.seed),
            ablations.run_refresh(n=min(args.n, 300), seed=args.seed),
            ablations.run_counter_mode(n=min(args.n, 300), seed=args.seed),
        ],
        "refresh": lambda: [
            refresh_vulnerability.run(n=min(args.n, 300), density=args.density)
        ],
        "randkp": lambda: [
            randkp_connectivity.run(n=min(args.n, 250), density=args.density)
        ],
        "load": lambda: [
            load_delivery.run(n=min(args.n, 250), density=args.density, seed=args.seed)
        ],
    }
    wanted = runners.keys() if args.which == "all" else [args.which]
    for key in wanted:
        if key not in runners:
            print(f"unknown experiment {key!r}; choose from {sorted(runners)} or 'all'")
            return 2
        for table in runners[key]():
            print(table.render())
            print()
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro import SecureSensorNetwork
    from repro.viz import cluster_map

    ssn = SecureSensorNetwork.deploy(n=args.n, density=args.density, seed=args.seed)
    print(cluster_map(ssn.deployed, width=args.width))
    m = ssn.setup_metrics
    print(
        f"\nclusters: {m.cluster_count}  mean size: {m.mean_cluster_size:.2f}  "
        f"keys/node: {m.mean_keys_per_node:.2f} (max {m.max_keys_per_node})  "
        f"singletons: {m.singleton_fraction:.2%}"
    )
    return 0


def _cmd_run_live(args: argparse.Namespace) -> int:
    import json

    from repro.gateway import deployment_status
    from repro.runtime import TRANSPORTS, deploy_live
    from repro.workloads import PeriodicReporting

    if args.transport not in TRANSPORTS:
        print(
            f"unknown transport {args.transport!r}: choose one of "
            f"{', '.join(TRANSPORTS)} (loopback = the deterministic in-process "
            f"fabric with the radio model; udp = real datagram sockets on "
            f"127.0.0.1)"
        )
        return 2

    for name, value, ok in (
        ("--period", args.period, args.period > 0),
        ("--rounds", args.rounds, args.rounds >= 1),
        ("--settle", args.settle, args.settle >= 0),
        ("--time-scale", args.time_scale, args.time_scale > 0),
        ("--pace", args.pace, args.pace >= 0),
        ("--sample-period", args.sample_period, args.sample_period > 0),
    ):
        if not ok:
            print(f"invalid {name} {value}: must be positive")
            return 2

    transport_kwargs = {}
    if args.transport == "udp":
        transport_kwargs = {"base_port": args.base_port, "time_scale": args.time_scale}
    elif args.transport == "loopback":
        transport_kwargs = {"pace": args.pace}

    try:
        deployed, metrics = deploy_live(
            n=args.n,
            density=args.density,
            seed=args.seed,
            transport=args.transport,
            event_log_limit=4096 if args.metrics_out else 0,
            **transport_kwargs,
        )
    except OSError as exc:
        # Typically EADDRINUSE: another run already owns the UDP port range.
        print(f"could not bring up the {args.transport} transport: {exc}")
        print("hint: pick a different --base-port")
        return 1

    telemetry = deployed.network.trace.telemetry
    writer = sampler = None
    if args.metrics_out:
        from repro.telemetry import JsonlWriter, PeriodicSampler

        writer = JsonlWriter(args.metrics_out)
        # Replays the buffered setup-phase events, then streams live ones.
        writer.subscribe_to(telemetry.events)
        sampler = PeriodicSampler(
            deployed,
            telemetry.registry,
            writer,
            args.sample_period,
            before_sample=telemetry.crypto.publish,
        )
        sampler.start()

    sources = [nid for nid, a in deployed.agents.items() if a.state.hops_to_bs > 0]
    workload = PeriodicReporting(
        deployed, sources, period_s=args.period, rounds=args.rounds
    )
    workload.start()
    deployed.run_for(workload.duration_s + args.settle)

    if writer is not None and sampler is not None:
        sampler.stop()
        telemetry.crypto.publish()
        writer.write_summary(
            deployed.now(),
            telemetry.registry,
            transport=args.transport,
            nodes=len(deployed.agents),
            events_dropped=telemetry.events.dropped,
        )
        writer.close()

    latencies = workload.latencies()
    report = {
        **deployment_status(deployed),
        "setup": {
            "clusters": metrics.cluster_count,
            "mean_keys_per_node": round(metrics.mean_keys_per_node, 3),
            "setup_messages_per_node": round(metrics.messages_per_node, 3),
        },
        "workload": {
            "sources": len(sources),
            "readings_sent": len(workload.sent),
            "send_failures": workload.send_failures,
            "delivery_ratio": round(workload.delivery_ratio(), 4),
            "mean_latency_s": round(
                sum(latencies) / len(latencies), 4
            ) if latencies else None,
        },
    }
    print(json.dumps(report, indent=2))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.gateway.serve import LiveGateway, ServeOptions

    try:
        options = ServeOptions(
            n=args.n,
            density=args.density,
            seed=args.seed,
            transport=args.transport,
            host=args.host,
            port=args.port,
            gateway_id=args.gateway_id,
            region=args.region,
            period_s=args.period,
            rounds=args.rounds,
            time_scale=args.time_scale,
            peers=tuple(args.peer),
            federation_period_s=args.fed_period,
            federation_key=(
                bytes.fromhex(args.federation_key) if args.federation_key else None
            ),
        )
        options.validate()
    except ValueError as exc:
        print(f"invalid serve options: {exc}")
        return 2
    try:
        gateway = LiveGateway.build(options)
    except OSError as exc:
        print(f"could not bind {args.host}:{args.port}: {exc}")
        print("hint: pick a different --port (0 = ephemeral)")
        return 1

    gateway.start()
    print(
        f"gateway {options.gateway_id} serving {gateway.url} "
        f"(n={options.n} {options.transport}, region={options.region}, "
        f"peers={len(gateway.peers)})",
        flush=True,
    )
    try:
        gateway.run(duration_s=args.duration if args.duration > 0 else None)
    except KeyboardInterrupt:
        pass
    finally:
        gateway.stop()
    print(json.dumps(gateway.store.digest(), indent=2))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.runtime import TRANSPORTS
    from repro.runtime.chaos import (
        ChaosScenario,
        parse_crash,
        parse_partition,
        run_chaos,
    )

    if args.transport not in TRANSPORTS:
        print(f"unknown transport {args.transport!r}: choose one of {', '.join(TRANSPORTS)}")
        return 2
    try:
        scenario = ChaosScenario(
            seed=args.seed,
            n=args.n,
            density=args.density,
            transport=args.transport,
            drop=args.drop,
            duplicate=args.duplicate,
            reorder=args.reorder,
            corrupt=args.corrupt,
            delay_jitter_s=args.delay_jitter,
            crashes=tuple(parse_crash(s) for s in args.crash),
            partitions=tuple(parse_partition(s) for s in args.partition),
            retransmits=not args.no_retransmits,
            period_s=args.period,
            rounds=args.rounds,
            settle_s=args.settle,
        )
        scenario.fault_plan()  # validate the fault rates up front
    except ValueError as exc:
        print(f"invalid scenario: {exc}")
        return 2

    result = run_chaos(scenario)

    reliability = "on" if scenario.retransmits else "off"
    fault_counters = {
        k: v for k, v in sorted(result.counters.items()) if k.startswith("fault.")
    }
    retx_counters = {
        k: result.counter(k)
        for k in ("net.retx.sent", "net.retx.acked", "net.retx.queue_full",
                  "forward.giveup", "tx.ack")
    }
    if args.json:
        print(
            json.dumps(
                {
                    "seed": scenario.seed,
                    "n": scenario.n,
                    "transport": scenario.transport,
                    "retransmits": scenario.retransmits,
                    "drop": scenario.drop,
                    "duplicate": scenario.duplicate,
                    "reorder": scenario.reorder,
                    "corrupt": scenario.corrupt,
                    "delivery_ratio": round(result.delivery_ratio, 6),
                    "sent": result.sent,
                    "delivered": result.delivered,
                    "sources": result.sources,
                    "unroutable": result.unroutable,
                    "send_failures": result.send_failures,
                    "mean_latency_s": (
                        round(result.mean_latency_s, 4)
                        if result.mean_latency_s is not None
                        else None
                    ),
                    "fault_counters": fault_counters,
                    "reliability_counters": retx_counters,
                },
                indent=2,
            )
        )
    else:
        print(
            f"chaos seed={scenario.seed} n={scenario.n} {scenario.transport} "
            f"drop={scenario.drop:.0%} dup={scenario.duplicate:.0%} "
            f"reorder={scenario.reorder:.0%} corrupt={scenario.corrupt:.0%} "
            f"retransmits={reliability}"
        )
        print(
            f"  delivery: {result.delivery_ratio:.2%} "
            f"({result.sent} sent from {result.sources} sources, "
            f"{result.unroutable} unroutable excluded)"
        )
        if result.mean_latency_s is not None:
            print(f"  mean latency: {result.mean_latency_s:.3f}s")
        print("  faults injected:", " ".join(f"{k.split('.', 1)[1]}={v}" for k, v in fault_counters.items()) or "none")
        if scenario.retransmits:
            print(
                "  reliability: "
                + " ".join(f"{k}={v}" for k, v in retx_counters.items())
            )
    if args.assert_delivery is not None and result.delivery_ratio < args.assert_delivery:
        print(
            f"FAIL: delivery {result.delivery_ratio:.2%} below the "
            f"--assert-delivery bar {args.assert_delivery:.2%}"
        )
        return 1
    return 0


def _cmd_churn(args: argparse.Namespace) -> int:
    import json

    from repro.runtime import TRANSPORTS
    from repro.runtime.lifecycle import ChurnScenario, run_churn

    if args.transport not in TRANSPORTS:
        print(f"unknown transport {args.transport!r}: choose one of {', '.join(TRANSPORTS)}")
        return 2
    try:
        scenario = ChurnScenario(
            seed=args.seed,
            n=args.n,
            density=args.density,
            transport=args.transport,
            mobility=args.mobility,
            speed_min=args.speed_min,
            speed_max=args.speed_max,
            groups=args.groups,
            drop=args.drop,
            duplicate=args.duplicate,
            reorder=args.reorder,
            duration_s=args.duration,
            joins=args.joins,
            leaves=args.leaves,
            revokes=args.revokes,
            refresh_period_s=args.refresh_period,
            refresh=not args.no_refresh,
            refresh_strategy=args.refresh_strategy,
            reliability=not args.no_reliability,
            report_period_s=args.period,
            window_s=args.window,
            settle_s=args.settle,
            min_delivery=args.min_delivery,
            max_reconverge_s=args.max_reconverge,
            max_orphan_dwell_s=args.max_orphan_dwell,
        )
        scenario.fault_plan()  # validate the fault rates up front
    except ValueError as exc:
        print(f"invalid scenario: {exc}")
        return 2

    result = run_churn(scenario)

    if args.json:
        print(
            json.dumps(
                {
                    "seed": scenario.seed,
                    "n": scenario.n,
                    "transport": scenario.transport,
                    "mobility": scenario.mobility,
                    "drop": scenario.drop,
                    "churn_events": scenario.churn_events,
                    "churn_fraction": round(scenario.churn_fraction, 4),
                    "reliability": scenario.reliability,
                    "refresh": scenario.refresh,
                    "converged": result.converged,
                    "reasons": list(result.reasons),
                    "delivery_ratio": round(result.delivery_ratio, 6),
                    "min_window_delivery": round(result.min_window_delivery, 6),
                    "sent": result.sent,
                    "delivered": result.delivered,
                    "send_failures": result.send_failures,
                    "joins_completed": result.joins_completed,
                    "joins_failed": result.joins_failed,
                    "leaves": result.leaves,
                    "nodes_revoked": result.nodes_revoked,
                    "clusters_revoked": result.clusters_revoked,
                    "refresh_rounds": result.refresh_rounds,
                    "mobility_steps": result.mobility_steps,
                    "links_added": result.links_added,
                    "links_removed": result.links_removed,
                    "max_reconverge_s": round(result.max_reconverge_s, 3),
                    "max_orphan_dwell_s": round(result.max_orphan_dwell_s, 3),
                    "final_orphans": result.final_orphans,
                    "store_nodes": result.store_nodes,
                    "store_evicted": result.store_evicted,
                },
                indent=2,
            )
        )
    else:
        print(
            f"churn seed={scenario.seed} n={scenario.n} {scenario.transport} "
            f"mobility={scenario.mobility} drop={scenario.drop:.0%} "
            f"churn={scenario.churn_events} events "
            f"({scenario.churn_fraction:.0%} of nodes) "
            f"reliability={'on' if scenario.reliability else 'off'} "
            f"refresh={'on' if scenario.refresh else 'off'}"
        )
        print(
            f"  delivery: {result.delivery_ratio:.2%} overall, "
            f"{result.min_window_delivery:.2%} worst window "
            f"({result.sent} sent, {result.delivered} delivered)"
        )
        print(
            f"  churn: +{result.joins_completed} joined "
            f"({result.joins_failed} failed), -{result.leaves} left, "
            f"-{result.nodes_revoked} revoked "
            f"({result.clusters_revoked} clusters), "
            f"{result.refresh_rounds} refresh rounds"
        )
        print(
            f"  mobility: {result.mobility_steps} steps, "
            f"+{result.links_added}/-{result.links_removed} links"
        )
        print(
            f"  convergence: re-cluster {result.max_reconverge_s:.1f}s, "
            f"worst orphan dwell {result.max_orphan_dwell_s:.1f}s, "
            f"{result.final_orphans} orphans at end"
        )
        print(
            f"  gateway store: {result.store_nodes} nodes, "
            f"{result.store_evicted} evicted"
        )
        print("  converged:", "yes" if result.converged else "NO")
        for reason in result.reasons:
            print(f"    - {reason}")
    if args.assert_convergence and not result.converged:
        print("FAIL: scenario did not converge within its documented bounds")
        return 1
    return 0


#: ``repro bench <name>``: its help line, its ``--quick`` help and the
#: flags passed on to ``repro.bench.bench_<name>`` as keyword arguments,
#: each ``(flag, type, default, help)``. ``render_bench_<name>`` prints
#: the payload.
_BENCHES: dict[str, tuple[str, str, tuple[tuple[str, type, object, str], ...]]] = {
    "crypto": (
        "time the scalar vs vector keystream kernels",
        "fewer repetitions — noisier, for CI smoke runs",
        (),
    ),
    "forwarding": (
        "soak the data plane at 0%%/15%% loss",
        "shorter soak and fewer repetitions — noisier, for CI smoke runs",
        (
            ("--n", int, 100, "deployment size (default: 100)"),
            ("--density", float, 10.0, "mean neighbors per node"),
            ("--seed", int, 0, "deployment seed"),
        ),
    ),
    "runtime": (
        "time key setup across backends",
        "skip the paper-scale sizes (n=2500/3600) — for CI smoke runs",
        (("--seed", int, 0, "deployment seed"),),
    ),
    "churn": (
        "lifecycle scenarios under mobility + churn",
        "shorten the scenario horizon — for CI smoke runs",
        (
            ("--n", int, 40, "number of sensors"),
            ("--density", float, 10.0, "mean neighbors/node"),
            ("--seed", int, 0, "deployment seed"),
        ),
    ),
}


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    import repro.bench

    name = args.bench_command
    kwargs = {flag[2:]: getattr(args, flag[2:]) for flag, *_ in _BENCHES[name][2]}
    payload = getattr(repro.bench, f"bench_{name}")(quick=args.quick, **kwargs)
    with open(args.out, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, indent=2)
        fp.write("\n")
    print(getattr(repro.bench, f"render_bench_{name}")(payload))
    print(f"\nwrote {args.out}")
    return 0


def _cmd_metrics_summarize(args: argparse.Namespace) -> int:
    import json

    from repro.telemetry import read_records, render_summary, summarize_records

    try:
        records = read_records(args.path)
        summary = summarize_records(records)
    except (OSError, ValueError) as exc:
        print(f"could not summarize {args.path}: {exc}")
        return 1
    if args.json:
        print(
            json.dumps(
                {
                    "transport": summary.transport,
                    "n": summary.n,
                    "clock_s": summary.clock_s,
                    "hello_messages": summary.hello_messages,
                    "linkinfo_messages": summary.linkinfo_messages,
                    "messages_per_node": summary.messages_per_node,
                    "clusters": summary.clusters,
                    "mean_keys_per_node": summary.mean_keys_per_node,
                    "readings_delivered": summary.readings_delivered,
                    "events_logged": summary.events_logged,
                    "counters": summary.counters,
                },
                indent=2,
            )
        )
    else:
        print(render_summary(summary))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Dimitriou & Krontiris (IPPS 2005)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="deploy and collect a few readings")
    _add_common(demo)
    demo.set_defaults(func=_cmd_demo)

    figures = sub.add_parser("figures", help="regenerate the paper's figures")
    _add_common(figures)
    figures.add_argument("--fig", default="all", help="1, 6, 7, 8, 9 or 'all'")
    figures.add_argument("--runs", type=int, default=2, help="seeds per point")
    figures.set_defaults(func=_cmd_figures)

    experiments = sub.add_parser("experiments", help="non-figure experiments")
    _add_common(experiments)
    experiments.add_argument(
        "--which",
        default="all",
        help=(
            "broadcast, resilience, attacks, leap, scale, timing, energy, "
            "ablations, refresh, randkp, load or 'all'"
        ),
    )
    experiments.set_defaults(func=_cmd_experiments)

    inspect = sub.add_parser("inspect", help="print a cluster map")
    _add_common(inspect)
    inspect.add_argument("--width", type=int, default=72, help="map width in chars")
    inspect.set_defaults(func=_cmd_inspect)

    run_live = sub.add_parser(
        "run-live", help="run a live deployment on a real transport"
    )
    _add_common(run_live)
    run_live.add_argument(
        "--transport",
        default="loopback",
        metavar="{loopback,udp}",
        help="network backend to run the nodes on (default: loopback)",
    )
    run_live.add_argument(
        "--period", type=float, default=5.0, help="reporting period in protocol seconds"
    )
    run_live.add_argument(
        "--rounds", type=int, default=3, help="reports per source"
    )
    run_live.add_argument(
        "--settle",
        type=float,
        default=5.0,
        help="extra protocol seconds to run after the last report",
    )
    run_live.add_argument(
        "--base-port", type=int, default=47_000, help="udp only: first node port"
    )
    run_live.add_argument(
        "--time-scale",
        type=float,
        default=10.0,
        help="udp only: protocol seconds per wall second",
    )
    run_live.add_argument(
        "--pace",
        type=float,
        default=0.0,
        help="loopback only: wall seconds per protocol second (0 = fast)",
    )
    run_live.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="stream telemetry (events, samples, summary) to PATH as JSONL",
    )
    run_live.add_argument(
        "--sample-period",
        type=float,
        default=5.0,
        help="protocol seconds between metric samples (with --metrics-out)",
    )
    run_live.set_defaults(func=_cmd_run_live)

    serve = sub.add_parser(
        "serve", help="serve the gateway HTTP query API over a live deployment"
    )
    _add_common(serve)
    serve.add_argument(
        "--transport",
        default="loopback",
        metavar="{loopback}",
        help="backend the mesh runs on (default: loopback)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="HTTP bind address")
    serve.add_argument(
        "--port", type=int, default=8440, help="HTTP port (0 = ephemeral)"
    )
    serve.add_argument(
        "--gateway-id",
        default="gw0",
        help="this gateway's unique federation identity",
    )
    serve.add_argument(
        "--region",
        default="all",
        metavar="all|mod:K/R|range:LO-HI",
        help="which source ids this gateway ingests (default: all)",
    )
    serve.add_argument(
        "--period", type=float, default=5.0, help="reporting period in protocol seconds"
    )
    serve.add_argument(
        "--rounds", type=int, default=4, help="reports per source per workload cycle"
    )
    serve.add_argument(
        "--time-scale",
        type=float,
        default=20.0,
        help="protocol seconds advanced per wall second",
    )
    serve.add_argument(
        "--peer",
        action="append",
        default=[],
        metavar="URL",
        help="peer gateway base URL to federate with, repeatable",
    )
    serve.add_argument(
        "--fed-period",
        type=float,
        default=2.0,
        help="wall seconds between federation pull rounds",
    )
    serve.add_argument(
        "--federation-key",
        default=None,
        metavar="HEX",
        help="pre-shared federation key (default: derived from the deployment)",
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=0.0,
        help="wall seconds to serve before exiting (0 = until interrupted)",
    )
    # Every sensor reports, so the serve default mesh is smaller than the
    # common --n default (same reasoning as chaos).
    serve.set_defaults(func=_cmd_serve, n=60)

    chaos = sub.add_parser(
        "chaos", help="run a seeded fault-injection scenario on a live deployment"
    )
    _add_common(chaos)
    chaos.add_argument(
        "--transport",
        default="loopback",
        metavar="{loopback,udp}",
        help="network backend to inject faults into (default: loopback)",
    )
    chaos.add_argument(
        "--drop", type=float, default=0.15, help="per-delivery drop probability"
    )
    chaos.add_argument(
        "--duplicate", type=float, default=0.05, help="duplication probability"
    )
    chaos.add_argument(
        "--reorder", type=float, default=0.05, help="reordering probability"
    )
    chaos.add_argument(
        "--corrupt", type=float, default=0.0, help="byte-corruption probability"
    )
    chaos.add_argument(
        "--delay-jitter",
        type=float,
        default=0.0,
        help="max extra per-delivery latency in protocol seconds",
    )
    chaos.add_argument(
        "--crash",
        action="append",
        default=[],
        metavar="NODE@AT[:RESTART]",
        help="crash schedule, repeatable (e.g. 7@20:35)",
    )
    chaos.add_argument(
        "--partition",
        action="append",
        default=[],
        metavar="N1,N2@START:END",
        help="partition window, repeatable (e.g. 3,9@15:40)",
    )
    chaos.add_argument(
        "--no-retransmits",
        action="store_true",
        help="disable hop ACKs/retransmission and setup re-announcement",
    )
    chaos.add_argument(
        "--period", type=float, default=5.0, help="reporting period in protocol seconds"
    )
    chaos.add_argument("--rounds", type=int, default=3, help="reports per source")
    chaos.add_argument(
        "--settle",
        type=float,
        default=10.0,
        help="extra protocol seconds to run after the last report",
    )
    chaos.add_argument(
        "--assert-delivery",
        type=float,
        default=None,
        metavar="RATIO",
        help="exit 1 if delivery falls below RATIO (e.g. 0.99)",
    )
    chaos.add_argument("--json", action="store_true", help="machine-readable output")
    # The acceptance scenario is deliberately smaller than the common
    # --n default: chaos runs every sensor as a reporting source.
    chaos.set_defaults(func=_cmd_chaos, n=60)

    churn = sub.add_parser(
        "churn",
        help="run a seeded mobility + churn lifecycle scenario on a live deployment",
    )
    _add_common(churn)
    churn.add_argument(
        "--transport",
        default="loopback",
        help="transport backend (loopback, udp; default: loopback)",
    )
    churn.add_argument(
        "--mobility",
        default="waypoint",
        help="mobility model: waypoint or group (default: waypoint)",
    )
    churn.add_argument(
        "--speed-min", type=float, default=0.2, help="minimum node speed (units/s)"
    )
    churn.add_argument(
        "--speed-max", type=float, default=1.0, help="maximum node speed (units/s)"
    )
    churn.add_argument(
        "--groups", type=int, default=4, help="group count for the group model"
    )
    churn.add_argument(
        "--drop", type=float, default=0.10, help="per-delivery drop probability"
    )
    churn.add_argument(
        "--duplicate", type=float, default=0.03, help="per-delivery duplication probability"
    )
    churn.add_argument(
        "--reorder", type=float, default=0.03, help="per-delivery reordering probability"
    )
    churn.add_argument(
        "--duration", type=float, default=120.0, help="scenario horizon (seconds)"
    )
    churn.add_argument("--joins", type=int, default=2, help="nodes joining mid-run")
    churn.add_argument("--leaves", type=int, default=2, help="nodes leaving mid-run")
    churn.add_argument(
        "--revokes", type=int, default=1, help="cluster revocations mid-run"
    )
    churn.add_argument(
        "--refresh-period",
        type=float,
        default=40.0,
        help="seconds between key-refresh rounds (0 disables)",
    )
    churn.add_argument(
        "--refresh-strategy",
        default="rehash",
        help="refresh strategy: rehash, recluster or reelect (default: rehash)",
    )
    churn.add_argument(
        "--no-refresh",
        action="store_true",
        help="disable periodic key refresh entirely",
    )
    churn.add_argument(
        "--no-reliability",
        action="store_true",
        help="disable hop-by-hop ACKs/retransmits and setup re-announcement",
    )
    churn.add_argument(
        "--period", type=float, default=5.0, help="reporting period (seconds)"
    )
    churn.add_argument(
        "--window", type=float, default=15.0, help="sliding delivery window (seconds)"
    )
    churn.add_argument(
        "--settle", type=float, default=15.0, help="settle time after the horizon"
    )
    churn.add_argument(
        "--min-delivery",
        type=float,
        default=0.90,
        help="convergence bound: minimum overall delivery ratio",
    )
    churn.add_argument(
        "--max-reconverge",
        type=float,
        default=30.0,
        help="convergence bound: worst re-clustering time (seconds)",
    )
    churn.add_argument(
        "--max-orphan-dwell",
        type=float,
        default=20.0,
        help="convergence bound: worst orphaned-node dwell time (seconds)",
    )
    churn.add_argument(
        "--assert-convergence",
        action="store_true",
        help="exit nonzero unless every convergence bound holds (CI gate)",
    )
    churn.add_argument("--json", action="store_true", help="machine-readable output")
    # --n default: churn scenarios run on a mid-size mobile field.
    churn.set_defaults(func=_cmd_churn, n=40)

    bench = sub.add_parser("bench", help="performance benchmarks")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    for name, (summary, quick_help, flags) in _BENCHES.items():
        out = f"BENCH_{name}.json"
        cmd = bench_sub.add_parser(name, help=f"{summary}; write {out}")
        cmd.add_argument(
            "--out",
            default=out,
            metavar="PATH",
            help=f"where to write the JSON payload (default: {out})",
        )
        cmd.add_argument("--quick", action="store_true", help=quick_help)
        for flag, kind, default, flag_help in flags:
            cmd.add_argument(flag, type=kind, default=default, help=flag_help)
        cmd.set_defaults(func=_cmd_bench)

    # Listed for --help only: main() hands `lint`'s arguments to ldplint's
    # own parser (repro.analysis.lint.cli) unparsed.
    sub.add_parser(
        "lint", help="ldplint: static analysis of the paper's security invariants"
    )

    metrics = sub.add_parser("metrics", help="work with exported telemetry streams")
    metrics_sub = metrics.add_subparsers(dest="metrics_command", required=True)
    summarize = metrics_sub.add_parser(
        "summarize",
        help="fold a metrics JSONL stream into the shape SetupMetrics reports",
    )
    summarize.add_argument("path", help="metrics JSONL file (from --metrics-out)")
    summarize.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    summarize.set_defaults(func=_cmd_metrics_summarize)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["lint"]:
        from repro.analysis.lint.cli import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
