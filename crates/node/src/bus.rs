//! An in-process cluster: one thread per actor, one transport link each
//! (channels by default), and a coordinator-side link bundle.

use std::thread::JoinHandle;

use crate::actor::{serve, Actor};
use crate::event::NodeEvent;
use crate::transport::{InMemoryTransport, Transport};
use crate::{NodeId, COORDINATOR};

/// Spawns each actor on its own thread behind one end of a transport link
/// and hands the coordinator the other end of every link.
///
/// Over the default [`InMemoryTransport`] the bus is the cheapest
/// full-fidelity deployment: every frame crosses the real codec and a real
/// thread boundary, so a protocol driven through it exercises exactly the
/// message flow of the socket deployment while remaining deterministic and
/// fast enough for tests.  [`LocalBus::spawn_over`] stands the same cluster
/// up over any other link type (e.g. Unix-domain socket pairs).
///
/// Dropping the bus shuts the cluster down: each node receives
/// [`NodeEvent::Shutdown`] and its thread is joined.
pub struct LocalBus<T: Transport = InMemoryTransport> {
    links: Vec<T>,
    threads: Vec<JoinHandle<std::io::Result<()>>>,
}

impl LocalBus {
    /// Spawns `actors[i]` as node `i` behind an in-memory link.
    pub fn spawn<A: Actor + Send + 'static>(actors: Vec<A>) -> LocalBus {
        LocalBus::spawn_over(actors, InMemoryTransport::pair)
    }
}

impl<T: Transport> LocalBus<T> {
    /// Spawns `actors[i]` as node `i` behind a link from `make_pair`, which
    /// returns one connected `(coordinator side, node side)` pair per call.
    pub fn spawn_over<A>(actors: Vec<A>, mut make_pair: impl FnMut() -> (T, T)) -> LocalBus<T>
    where
        A: Actor + Send + 'static,
        T: Send + 'static,
    {
        let mut links = Vec::with_capacity(actors.len());
        let mut threads = Vec::with_capacity(actors.len());
        for (index, mut actor) in actors.into_iter().enumerate() {
            let id = index as NodeId;
            let (coordinator_side, mut node_side) = make_pair();
            links.push(coordinator_side);
            threads.push(std::thread::spawn(move || {
                serve(id, &mut node_side, &mut actor)
            }));
        }
        LocalBus { links, threads }
    }

    /// The number of nodes on the bus.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the bus has no nodes.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The coordinator's link to `node`.
    pub fn link(&mut self, node: NodeId) -> &mut T {
        &mut self.links[node as usize]
    }

    /// All coordinator-side links, indexed by node id.
    pub fn links_mut(&mut self) -> &mut [T] {
        &mut self.links
    }

    /// Shuts every node down and joins its thread, surfacing serve-loop
    /// errors. Called implicitly on drop (where errors panic instead).
    pub fn shutdown(&mut self) -> std::io::Result<()> {
        for (index, link) in self.links.iter_mut().enumerate() {
            // A node that already exited (or a dropped link on re-entry
            // from Drop) is fine — joining below surfaces real errors.
            let _ = link.send(&NodeEvent::Shutdown.into_frame(COORDINATOR, index as NodeId));
        }
        for thread in self.threads.drain(..) {
            thread.join().map_err(|_| std::io::Error::other("node thread panicked"))??;
        }
        Ok(())
    }
}

impl<T: Transport> Drop for LocalBus<T> {
    #[expect(
        clippy::expect_used,
        reason = "P1: Drop cannot return an error, and a failed serve loop must not be silently swallowed at teardown"
    )]
    fn drop(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        self.shutdown().expect("node serve loop failed during shutdown");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        seen: u64,
    }

    impl Actor for Counter {
        fn on_event(&mut self, from: NodeId, event: NodeEvent) -> Vec<(NodeId, NodeEvent)> {
            match event {
                NodeEvent::Hello { .. } => {
                    self.seen += 1;
                    Vec::new()
                }
                NodeEvent::ReadoutRequest { .. } => vec![(
                    from,
                    NodeEvent::ReadoutReply { payload: self.seen.to_be_bytes().to_vec() },
                )],
                _ => Vec::new(),
            }
        }
    }

    #[test]
    fn bus_routes_events_to_each_node_and_shuts_down_cleanly() {
        let mut bus = LocalBus::spawn((0..4).map(|_| Counter { seen: 0 }).collect());
        assert_eq!(bus.len(), 4);
        for node in 0..4u32 {
            for _ in 0..=node {
                bus.link(node)
                    .send(&NodeEvent::Hello { config: Vec::new() }.into_frame(COORDINATOR, node))
                    .unwrap();
            }
        }
        for node in 0..4u32 {
            bus.link(node)
                .send(
                    &NodeEvent::ReadoutRequest { include_units: false }
                        .into_frame(COORDINATOR, node),
                )
                .unwrap();
            let reply = bus.link(node).recv().unwrap();
            let payload = match NodeEvent::from_frame(&reply).unwrap() {
                NodeEvent::ReadoutReply { payload } => payload,
                other => panic!("unexpected reply {other:?}"),
            };
            assert_eq!(payload, u64::from(node + 1).to_be_bytes().to_vec());
        }
        bus.shutdown().unwrap();
    }
}
