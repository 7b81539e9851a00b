// Command perfbench is the GENAS repository benchmark: the time from an
// event's publication to its notification in every matching subscriber's
// hands, and the events per second delivered, on two deployments, plus a
// traced layer ladder that splits the cost over the layers.
//
// Run it from the repository root (the wrapper builds it from the checkout's
// sources, with every build file under .bench_build/):
//
//	bash perfbench/run.sh --workload daemon-adaptive --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload daemon-adaptive --seed 1 --seconds 30 --trace 1
//	bash perfbench/steady.sh set1 1 2 3 4 5 6 7 8 9 10
//
// The last line of a run's standard output is one JSON object with the
// keys correct, attempted, failed and metrics; the lines before it print the
// plan fingerprint, per-round figures, every metric by name with its unit,
// sample counts and the failure breakdown.
//
// # Method
//
// Inputs. Each workload's plan comes from loadgen.Build: a 32768-event
// stream drawn from --seed, and a profile corpus drawn from a fixed seed
// (see corpusSeed for why). The oracle evaluates predicate.Profile.Matches
// of every corpus profile on every plan event once, before anything is
// timed. A run longer than the plan cycles through it. The first line
// prints the plan fingerprint (a hash of events, corpus and oracle), the
// corpus size and the notifications one pass over the plan expects, so two
// runs of one seed can be checked for doing the same work.
//
// Load. One process holds the system and the load; GOMAXPROCS is never
// above the host's processor count. One goroutine publishes, in order,
// through a v2 wire.Client at the entry daemon; the subscriptions live on a
// second client connection at the exit daemon, so no workload uses more
// than two connections. Set-up registers the corpus, waits for routes to
// converge and publishes one untimed warm-up event whose notifications must
// all arrive: it forces the first index build.
//
// Completion. Before each publish the benchmark appends the event to the
// FIFO of every subscription the oracle says it must notify (the corpus
// live at that point). Notifications of one subscription arrive in publish
// order, so a receipt that skips a FIFO entry proves that entry lost, and a
// receipt that matches no entry is a duplicate (the profile matches) or an
// extra (it does not: a filter bug, which makes correct false). An event is
// complete when its publish was acknowledged and every notification it
// expects has arrived. When nothing completes for a quarter of a second
// while every publish has been acknowledged, what is outstanding counts as
// lost.
//
// Churn. A churn step unsubscribes the oldest live subscription and
// subscribes the longest-parked profile under a fresh id. In the open loop a
// step precedes every k-th event of the stream (k fixed per workload), so
// churn is sequenced with the publishes at fixed positions; the closed loop
// measures capacity on the corpus the open loop left, without churn (its
// event count, and so its churn, would depend on the throughput). The
// generator issues each call to a goroutine that performs it on the
// subscriber's connection while publishing continues, as an independent
// subscriber would. For events published while a subscription's call is in
// flight, its notification is optional: the broker may see either call
// first.
//
// Rounds. A run first runs a short untimed round (the process's first
// deployment pays for growing the heap), then the workload's measured
// rounds (one for daemon-adaptive, five for chain-3hop), each on a freshly
// set-up deployment for an equal share of --seconds, half in the open loop
// and then half in the closed loop. Every end-to-end figure is the median
// over the rounds, except as the metric table says; failures are summed
// over them. Each loop starts right
// after a garbage collection, so the collector's cycles fall at the same
// points of every run.
//
// Phases. The open loop publishes at the workload's fixed rate in bursts:
// every 2 ms, rate·2 ms events fall due together and are published back to
// back. Every notification is timed from when its event was due, so a stall
// also delays the events queued behind it. The generator sleeps between
// bursts; the runtime's timers wake it up to a millisecond late, which
// gen.lag_ms_p99 reports and every latency includes. (Spinning instead of
// sleeping would be punctual, but the spinning processor stops polling the
// network, which delays deliveries by milliseconds.) The open loop never
// has more than the workload's window of events incomplete: past it, the
// generator waits (and the wait counts in every latency). The closed loop
// then publishes whenever fewer than the window's events are incomplete. The open-loop rates are below half the closed-loop capacity
// (about a fifth on daemon-adaptive, two fifths on chain-3hop): at half, the
// backlog behind daemon-adaptive's restructure stall covers much of the
// open loop and its median swings between runs.
//
// # Workloads
//
//   - daemon-adaptive: one daemon assembled as genasd assembles it (broker
//     and wire.Server, flat index, -adaptive -measure event), 280 live of
//     320 independently drawn profiles, adaptive-drift's skewed stream, a
//     churn step every 500 events of the open loop. Chosen because the
//     paper's own path does the work here: the distribution-ordered tree,
//     adaptive restructuring, delivery and the v2 codec. It leaves out aggregation (nothing to
//     collapse) and federation.
//   - chain-3hop: four daemons in a line with v2 links, the publisher at the
//     head, 300 subscriptions at the tail, no churn. Profiles sit high on
//     temperature and events mostly low, so the head's link filter rejects
//     most events (about seven in eight). Chosen because forwarding, the per-hop
//     codec and route propagation (inside setup_s) dominate. It leaves out
//     adaptive restructuring and churn, so the forwarded set is exact.
//
// # End-to-end metrics (--trace 0)
//
//	setup_s           s         Median over (at least) three set-ups of the time from an empty
//	                            deployment to the warm-up event delivered: daemons and links
//	                            up, corpus registered, routes converged, first index build.
//	throughput_eps    events/s  Closed loop: events completed inside the window, per second.
//	notify_p50_ms     ms        Open loop: median over every expected notification of the time
//	notify_p99_ms     ms        from its event's due time to receipt; p99 likewise. The sample
//	                            count is printed.
//	subscribe_p90_ms  ms        p90 of the calls of a probe between set-up and the loops,
//	                            pooled over the rounds. On the live deployment, with no event
//	                            flowing, 200 times a fresh id subscribes to a live profile's
//	                            predicates and unsubscribes again, routes converged after each
//	                            call (a copy is covered by its original, so no route changes);
//	                            400 calls a round. The churn calls of the open loop (printed)
//	                            do not give the figure: they contend with the publishes and,
//	                            on daemon-adaptive, land on an index restructured for the
//	                            seed's stream; over ten seeds their p90's quartiles spanned
//	                            23% of its median. p90 has tens of calls beyond it; a p99
//	                            would rest on the four slowest calls, which swing with the few
//	                            calls that meet a collection.
//	ops_ok_frac       ratio     1 - ops_failed_frac. ops_failed_frac (printed by name) is failed
//	                            over attempted operations: publishes, churn calls and expected
//	                            notifications attempted; publish or churn calls that error, and
//	                            expected notifications missing, dropped, duplicated or lost to a
//	                            cut link, failed. The gate carries the complement because a
//	                            bounded metric must not be 0.
//	bytes_per_sub     B         Live heap after set-up and a collection, less the live heap
//	                            before it, per live subscription; the largest over the rounds,
//	                            the untimed one included (memory of a torn-down deployment
//	                            still reachable at the baseline can only shrink the figure).
//	allocs_per_event  allocs    Heap allocations of the whole process over the closed loop, per
//	                            event published in it.
//
// # Per-layer metrics (--trace 1)
//
// The traced run sets the deployment up once, runs one round's open loop
// with a span around every publish and churn call, and its closed loop half
// with spans off and half with them on (trace.overhead_frac). End-to-end
// figures come only from untraced runs. It then replays the first events of
// the stream after the warm-up through a ladder of rungs, one event at a
// time, each rung with its own freshly built index over the same corpus and
// the same churn steps at the same positions: tree.Tree.Match;
// core.Engine.Match; broker (genas.Service.PublishValues plus receipt by
// every expected subscription, through genas.SubHandler); wire.Client to a
// daemon plus receipt; and the four-daemon chain plus receipt at the tail.
// A layer's self time is its rung minus the rung below. Rungs run up to the
// workload's own deployment: a layer that is not on the workload's path
// reports 0. Two side rungs run on every workload: agg (a covering poset of
// the corpus, frozen, expanding the matched roots, as an aggregated engine
// would) and adaptive (an adaptive.Adaptor observing every event before the
// core match, default policy). Spans (name, start, end, parent, event id)
// stay in memory and are written to .bench_build/trace/<workload>-seed<n>.jsonl
// at the end. Counts come from the layers' public stats.
//
//	metric                          unit    how measured                                   should move
//	tree.ops_per_event              ops     tree rung: comparisons per Match (the paper's   throughput_eps, notify_p50_ms
//	                                        unit)
//	tree.match_ns_per_event         ns      tree rung: mean Match time                      throughput_eps, notify_p50_ms
//	tree.build_ms                   ms      tree.Build over the live corpus                 setup_s, notify_p99_ms
//	core.match_ns_per_event         ns      core rung minus tree rung, mean                 notify_p99_ms, throughput_eps
//	core.churn_us_p99               us      core rung: p99 of AddProfile/RemoveProfile      subscribe_p90_ms
//	                                        (registration calls without churn)
//	core.call_ms_max                ms      core rung: longest single call                  notify_p99_ms, subscribe_p90_ms
//	core.allocs_per_event           allocs  core rung minus tree rung                       throughput_eps
//	agg.expand_ns_per_event         ns      agg rung: mean Snapshot.Expand time             throughput_eps
//	agg.expand_ops_per_event        ops     agg rung: expansion evaluations per event       throughput_eps
//	agg.canonical_nodes             count   agg rung: poset nodes                           bytes_per_sub
//	agg.roots                       count   agg rung: poset roots (what a tree would index) throughput_eps, setup_s
//	agg.poset_depth                 count   agg rung: longest covering chain                subscribe_p90_ms
//	broker.deliver_ns_per_event     ns      broker rung minus core rung, mean               throughput_eps, notify_p99_ms
//	broker.notifications_per_event  count   broker rung: delivered per event                (work done)
//	broker.dropped                  count   traced deployment: broker drops, all brokers    ops_ok_frac
//	broker.queue_depth_max          count   traced deployment: most notifications in        notify_p99_ms
//	                                        flight to one subscription
//	broker.allocs_per_event         allocs  broker rung minus core rung                     throughput_eps
//	adaptive.restructures           count   adaptive rung: restructures                     notify_p99_ms
//	adaptive.restructure_ms_max     ms      adaptive rung: longest Observe that             notify_p99_ms
//	                                        restructured
//	wire.ack_us_p50, wire.ack_us_p99 us     wire rung: PublishVals round trip               notify_p50_ms, throughput_eps
//	wire.self_us_p50                us      wire rung p50 minus broker rung p50             notify_p50_ms
//	wire.bytes_per_event            B       wire rung: server's inbound bytes per event     throughput_eps
//	wire.allocs_per_event           allocs  wire rung minus broker rung                     throughput_eps
//	federation.self_us_p50, _p99    us      chain rung minus wire rung, at p50 and p99      notify_p50_ms, notify_p99_ms
//	federation.forwarded_per_event  count   chain rung: link crossings per event            throughput_eps
//	federation.filtered_frac        ratio   chain rung: head crossings the link filter      throughput_eps
//	                                        avoided, over crossings offered
//	federation.route_converge_ms    ms      chain rung: wait for the head's routes after    setup_s
//	                                        the last subscribe
//	federation.lost                 count   notifications lost in the chain rung and in     ops_ok_frac
//	                                        the traced chain deployment
//	gen.lag_ms_p99                  ms      open loop: p99 lateness of the generator after  validity of every latency
//	                                        each wait
//	trace.overhead_frac             ratio   1 - traced/untraced closed-loop throughput      validity of every latency
//
// Where each layer works (and where it should stay flat): tree and core in
// daemon-adaptive (a flat tree of 280 profiles with churn), small and static
// in chain-3hop; agg is a side measurement on both (the deployments run
// flat); broker in both, small fan-out in chain-3hop; adaptive in
// daemon-adaptive, a side measurement on chain-3hop; wire in both;
// federation in chain-3hop, absent (0) in daemon-adaptive.
//
// # Steadiness and the gate
//
// steady.sh runs every workload once per seed and prints, per end-to-end
// metric, the median, the quartiles (Python's statistics.quantiles, n=4)
// and the spread (interquartile range over median) against the bound in
// BENCHMARK.json; --steady with two comma-separated result sets also
// applies the gate between them. --selftest proves on recorded result data
// that the gate accepts the data against itself and rejects every
// end-to-end metric worsened by twice its bound and an injected loss of
// notifications. The gate rejects a median worse than the base's by more
// than the bound, any incorrect run, and any failure where the base had
// none.
//
// # Observations
//
// These are properties of the program at the time the benchmark was
// defined, recorded as found, not fixed:
//
//   - daemon-adaptive: the first drift check (1024 events after set-up)
//     restructures, and the restructure rebuilds the flat index inline in
//     the publishing call: one publish holds for about as long as the
//     initial build (1.5 to 2 s at 280 profiles). Every event due meanwhile
//     queues behind it, which sets notify_p99_ms. Published back to back,
//     that backlog overruns the subscriber's buffers and notifications are
//     dropped, both by the broker (full 64-slot subscription buffers) and by
//     the v2 client (its 256-slot notification channel drops when the
//     reader lags): 0.1 to 0.4% of a run's operations. Paced at twice the
//     open-loop rate instead, it still lost up to 0.06%: the client's
//     channel holds about 8 ms of notifications at that rate. The window
//     the open loop keeps to avoids this, so that the workload runs
//     without failures: ops_ok_frac stays 1, and the stall shows in
//     notify_p99_ms alone.
//   - daemon-adaptive: an incremental subscribe on the flat index costs up
//     to a few hundred milliseconds, so the light churn never reaches the
//     coalescing threshold (twice the live profiles, 560 edits) inside a
//     run; the coalesced rebuild is not part of this workload's window.
//   - chain-3hop: at the open-loop rate and the closed-loop window no link
//     queue (1024 frames) overflows, so no link is cut; a cut would show as
//     lost notifications in ops_ok_frac and federation.lost.
//   - An aggregated in-process workload (2·10⁴ Zipf-clustered subscriptions
//     with continuous churn) was tried and left out: its tail latencies
//     varied between runs by more than the bounds allow. Serving that
//     corpus over one wire connection also loses notifications: an event
//     notifying more than 256 subscriptions at once overflows the client's
//     notification channel.
package main
