//! A process-per-node Chiaroscuro deployment: one coordinator process plus
//! N node processes, each owning its actor state behind a Unix-domain
//! socket, exchanging versioned length-prefixed frames.
//!
//!     cargo run --release --example multiprocess_cluster
//!
//! The coordinator forks the node processes (re-executing this binary in
//! node mode), provisions each with public cipher material and its series,
//! drives the full protocol over the sockets, and then verifies the
//! determinism contract end to end: the multi-process run must reproduce
//! both the in-process actor run and the monolithic `DistributedRun`
//! **bit for bit** from the same seed.  The key shares never leave the
//! coordinator; nodes hold public material only and never decrypt.

#[cfg(unix)]
fn main() {
    unix::main();
}

#[cfg(not(unix))]
fn main() {
    println!("multiprocess_cluster requires Unix-domain sockets; skipping on this platform");
}

#[cfg(unix)]
mod unix {
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::process::{Child, Command};

    use chiaroscuro::core::prelude::*;
    use chiaroscuro::core::MEANS_FRAME_OVERHEAD_BYTES;
    use chiaroscuro::node::{
        serve, FramedSocketTransport, NodeEvent, NodeId, Transport, COORDINATOR,
    };
    use chiaroscuro::timeseries::{TimeSeries, TimeSeriesSet, ValueRange};

    const POPULATION: usize = 4;
    const SEED: u64 = 42;
    const ID_ENV: &str = "CHIAROSCURO_NODE_ID";
    const SOCKET_ENV: &str = "CHIAROSCURO_SOCKET_PATH";

    /// Two well-separated constant profiles: deterministic and fast, so the
    /// bit-equality assertions are about the protocol, not the dataset.
    fn dataset() -> TimeSeriesSet {
        let series = (0..POPULATION)
            .map(|i| {
                if i % 2 == 0 {
                    TimeSeries::constant(4, 12.0)
                } else {
                    TimeSeries::constant(4, 68.0)
                }
            })
            .collect();
        TimeSeriesSet::new(series, ValueRange::new(0.0, 80.0))
    }

    fn params() -> ChiaroscuroParams {
        ChiaroscuroParams::builder()
            .k(2)
            .max_iterations(2)
            .key_bits(256)
            .key_share_threshold(3)
            .num_noise_shares(POPULATION)
            .exchanges(8)
            .epsilon(40.0)
            .lane_packing(true)
            .strategy(BudgetStrategy::UniformFast { max_iterations: 2 })
            .build()
    }

    pub fn main() {
        if let Ok(id) = std::env::var(ID_ENV) {
            let id: NodeId = id.parse().expect("node id must be a small integer");
            let path = std::env::var(SOCKET_ENV).expect("node mode needs the socket path");
            node_main(id, &path);
            return;
        }
        coordinator_main();
    }

    /// One node process: connect, register, then serve the actor until the
    /// coordinator sends `Shutdown`.
    fn node_main(id: NodeId, path: &str) {
        let stream = UnixStream::connect(path).expect("connecting to the coordinator socket");
        let mut transport = FramedSocketTransport::new(stream);
        // Registration: connections arrive in arbitrary order, so the first
        // frame announces which node this process is.
        transport
            .send(&NodeEvent::ReadoutReply { payload: Vec::new() }.into_frame(id, COORDINATOR))
            .expect("registration frame");
        let mut actor = chiaroscuro::core::ChiaroscuroNodeActor::<DamgardJurik>::new();
        serve(id, &mut transport, &mut actor).expect("node serve loop");
    }

    fn coordinator_main() {
        let data = dataset();
        println!(
            "Chiaroscuro multi-process cluster: coordinator + {POPULATION} node processes \
             over Unix-domain sockets"
        );

        // Reference runs: the monolithic executor and the in-process actor
        // path over the same socket transport, both from the same seed.
        let monolith = DistributedRun::new(params(), &data).execute(SEED);
        let socket_params =
            ChiaroscuroParams { transport: TransportKind::UnixSocket, ..params() };
        let in_process = DistributedRun::new(socket_params, &data).via_actors(SEED);

        // Fork the node fleet and drive the same run over real sockets.
        let socket_path = std::env::temp_dir()
            .join(format!("chiaroscuro-cluster-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket_path);
        let listener = UnixListener::bind(&socket_path).expect("binding the coordinator socket");
        let exe = std::env::current_exe().expect("current executable path");
        let mut children: Vec<Child> = (0..POPULATION)
            .map(|id| {
                Command::new(&exe)
                    .env(ID_ENV, id.to_string())
                    .env(SOCKET_ENV, &socket_path)
                    .spawn()
                    .expect("spawning a node process")
            })
            .collect();

        // Accept one connection per node; the registration frame tells the
        // coordinator which node is on which stream.
        let mut links: Vec<Option<FramedSocketTransport<UnixStream>>> =
            (0..POPULATION).map(|_| None).collect();
        for _ in 0..POPULATION {
            let (stream, _) = listener.accept().expect("accepting a node connection");
            let mut transport = FramedSocketTransport::new(stream);
            let registration = transport.recv().expect("registration frame");
            let node = registration.from as usize;
            assert!(node < POPULATION, "unknown node id {node}");
            assert!(links[node].is_none(), "node {node} registered twice");
            links[node] = Some(transport);
        }
        let mut links: Vec<FramedSocketTransport<UnixStream>> =
            links.into_iter().map(|l| l.expect("every node registered")).collect();

        let run = DistributedRun::new(params(), &data);
        let mut rng = chiaroscuro::core::seedmix::run_rng(SEED);
        let multiprocess =
            run.execute_via_links(&mut links, MEANS_FRAME_OVERHEAD_BYTES, &mut rng);

        // Shut the fleet down and reap the children.
        let mut bytes_sent = 0u64;
        let mut bytes_received = 0u64;
        for (node, link) in links.iter_mut().enumerate() {
            link.send(&NodeEvent::Shutdown.into_frame(COORDINATOR, node as NodeId))
                .expect("shutdown frame");
            bytes_sent += link.bytes_sent();
            bytes_received += link.bytes_received();
        }
        for child in &mut children {
            let status = child.wait().expect("waiting for a node process");
            assert!(status.success(), "a node process exited with {status}");
        }
        let _ = std::fs::remove_file(&socket_path);

        // The determinism contract, end to end.
        assert_eq!(multiprocess.first_divergence(&in_process, 0), None, "multi-process vs in-process actors");
        assert_eq!(
            multiprocess.first_divergence(&monolith, MEANS_FRAME_OVERHEAD_BYTES),
            None,
            "multi-process vs monolithic run: the payload bytes differ by exactly the frame overhead"
        );

        println!("\niteration  epsilon   pre-inertia  post-inertia  payload bytes/message");
        for (report, stats) in multiprocess.report.iterations.iter().zip(&multiprocess.network) {
            println!(
                "{:>9}  {:>7.3}  {:>11.2}  {:>12.2}  {:>21}",
                report.iteration + 1,
                report.epsilon,
                report.pre_inertia,
                report.post_inertia,
                stats.sum_payload_bytes,
            );
        }
        println!(
            "\ncoordinator socket traffic: {bytes_sent} bytes sent, {bytes_received} bytes received"
        );
        println!(
            "BIT-IDENTICAL: multi-process == in-process actors == monolithic run (seed {SEED})"
        );
    }
}
