//! End-to-end daemon tests: spawn a real server on an ephemeral
//! loopback port, drive it through the `psep-rpc/v1` client, and hold
//! answers bit-identical to in-process `LocationService` calls.

use std::sync::Arc;
use std::time::Duration;

use path_separators::api::{ApiErrorKind, Request, Response};
use path_separators::{LocationService, NodeId, ServiceParams};
use psep_serve::{Client, ServeConfig, Server, ShutdownHandle};
use psep_testkit::families::Family;
use psep_testkit::random_pairs;

fn test_config() -> ServeConfig {
    ServeConfig {
        poll_interval: Duration::from_millis(20),
        ..ServeConfig::default()
    }
}

fn spawn_service(
    fam: Family,
    n: usize,
) -> (
    Arc<LocationService<'static>>,
    std::net::SocketAddr,
    ShutdownHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let g = fam.make(n, 7);
    let svc = Arc::new(LocationService::build(&g, ServiceParams::default()));
    let server = Server::bind(Arc::clone(&svc), "127.0.0.1:0", test_config()).unwrap();
    let (addr, handle, runner) = server.spawn();
    (svc, addr, handle, runner)
}

#[test]
fn served_answers_are_bit_identical_across_families() {
    for fam in [
        Family::Grid,
        Family::KTree3,
        Family::Tree,
        Family::Apollonian,
    ] {
        let (svc, addr, handle, runner) = spawn_service(fam, 120);
        let n = svc.num_nodes();
        let pairs = random_pairs(n, 64, 11);
        let mut client = Client::connect(addr).unwrap();

        assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
        assert_eq!(
            client.call(&Request::Stats).unwrap(),
            Response::Stats(svc.stats()),
            "{fam:?}: stats over the wire diverge"
        );

        // singles: distance and full route must match in-process calls
        for &(u, v) in pairs.iter().take(12) {
            assert_eq!(
                client.call(&Request::Query { u, v }).unwrap(),
                Response::Distance(svc.query(u, v)),
                "{fam:?}: query({u:?},{v:?})"
            );
            assert_eq!(
                client.call(&Request::Route { u, t: v }).unwrap(),
                Response::Route(svc.route(u, v)),
                "{fam:?}: route({u:?},{v:?})"
            );
            assert_eq!(
                client.call(&Request::QueryPath { u, v }).unwrap(),
                Response::Path(svc.query_path(u, v)),
                "{fam:?}: query_path({u:?},{v:?})"
            );
        }

        // batches fan through the same engines and stay input-ordered
        assert_eq!(
            client
                .call(&Request::QueryMany {
                    pairs: pairs.clone()
                })
                .unwrap(),
            Response::Distances(svc.try_query_many(&pairs).unwrap()),
            "{fam:?}: batch queries diverge"
        );
        assert_eq!(
            client
                .call(&Request::RouteMany {
                    pairs: pairs.clone()
                })
                .unwrap(),
            Response::Routes(svc.try_route_many(&pairs).unwrap()),
            "{fam:?}: batch routes diverge"
        );
        assert_eq!(
            client
                .call(&Request::QueryPathMany {
                    pairs: pairs.clone()
                })
                .unwrap(),
            Response::Paths(svc.try_query_path_many(&pairs).unwrap()),
            "{fam:?}: batch paths diverge"
        );

        handle.shutdown();
        runner.join().unwrap().unwrap();
    }
}

#[test]
fn invalid_requests_get_typed_errors_not_panics() {
    let (svc, addr, handle, runner) = spawn_service(Family::Grid, 100);
    let bad = NodeId(svc.num_nodes() as u32 + 17);
    let mut client = Client::connect(addr).unwrap();
    for req in [
        Request::Query {
            u: NodeId(0),
            v: bad,
        },
        Request::Route {
            u: bad,
            t: NodeId(0),
        },
        Request::QueryMany {
            pairs: vec![(NodeId(0), bad)],
        },
        Request::RouteMany {
            pairs: vec![(bad, bad)],
        },
        Request::QueryPath {
            u: bad,
            v: NodeId(0),
        },
        Request::QueryPathMany {
            pairs: vec![(NodeId(0), bad)],
        },
    ] {
        let Response::Error(e) = client.call(&req).unwrap() else {
            panic!("{req:?} must be rejected");
        };
        assert_eq!(e.kind, ApiErrorKind::NodeOutOfRange, "{req:?}: {e}");
    }
    // the connection survived every rejection
    assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
    handle.shutdown();
    runner.join().unwrap().unwrap();
}

#[test]
fn malformed_payloads_are_answered_and_broken_frames_close_only_their_connection() {
    let (_svc, addr, handle, runner) = spawn_service(Family::Grid, 64);

    // a CRC-valid frame whose payload is not a request: typed error
    // back, connection stays usable
    let mut client = Client::connect(addr).unwrap();
    client.send_raw(b"\xffnot a request").unwrap();
    let Some(Response::Error(e)) = client.read().unwrap() else {
        panic!("garbage payload must be answered with a typed error");
    };
    assert_eq!(e.kind, ApiErrorKind::InvalidRequest);
    assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);

    // a byte stream that is not a frame at all: the server closes that
    // connection without panicking…
    {
        use std::io::{Read, Write};
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        raw.flush().unwrap();
        let mut buf = [0u8; 64];
        // server answers nothing and hangs up
        assert_eq!(raw.read(&mut buf).unwrap(), 0);
    }

    // …while other connections and new ones keep working
    assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
    let mut fresh = Client::connect(addr).unwrap();
    assert_eq!(fresh.call(&Request::Ping).unwrap(), Response::Pong);

    handle.shutdown();
    runner.join().unwrap().unwrap();
}

#[test]
fn concurrent_clients_get_consistent_answers() {
    let (svc, addr, handle, runner) = spawn_service(Family::KTree3, 100);
    let pairs = random_pairs(svc.num_nodes(), 40, 3);
    let expected = Response::Distances(svc.try_query_many(&pairs).unwrap());
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let pairs = pairs.clone();
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..5 {
                    let got = client
                        .call(&Request::QueryMany {
                            pairs: pairs.clone(),
                        })
                        .unwrap();
                    assert_eq!(&got, expected);
                }
            });
        }
    });
    handle.shutdown();
    runner.join().unwrap().unwrap();
}

#[test]
fn shutdown_drains_and_stops_accepting() {
    let (_svc, addr, handle, runner) = spawn_service(Family::Grid, 64);
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
    handle.shutdown();
    runner.join().unwrap().unwrap();
    // after drain the port is released; a fresh connect must not reach
    // a psep-serve accept loop (connection refused, or reset on call)
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => assert!(c.call(&Request::Ping).is_err()),
    }
}
