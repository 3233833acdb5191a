//! The serve phase: an in-process `bvc_serve` server preloaded from the
//! sweep journals, driven in a closed loop by keep-alive client threads,
//! plus in-process `Service::handle` probes for the traced run.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

use bvc_cluster::jobs::JobSpec;
use bvc_serve::http::{parse_query, Request};
use bvc_serve::{config_token, RunningServer, ServeConfig, Service};

use crate::cells::{self, Table};
use crate::util::{quantile, Rng};

/// HTTP worker threads and client connections.
pub const CONNECTIONS: usize = 2;

/// A setting-1 Table 2 cell with beta:gamma = 3:2 at a seed-drawn alpha
/// in [5%, 18%): a key no journal holds, so serving it is a fresh solve.
/// On that range every such solve took 1.7-1.9 ms on a 2-core box, so the
/// latency windows do not differ by which cold cells they happened to
/// draw (other ratios, and 3:2 above 18%, mix 1.2 ms and 4.5 ms solves).
pub fn cold_job(rng: &mut Rng) -> JobSpec {
    JobSpec::Table2 { alpha: 0.05 + 0.13 * rng.unit(), ratio: (3, 2), setting: 1 }
}

/// What one request asks for: a hot cell (index into the workload's
/// cells) or a cold cell (index into the cold list).
#[derive(Clone, Copy)]
pub enum Ask {
    Hot(usize),
    Cold(usize),
}

/// The closed-loop request lists, one per connection. With `cold_every`
/// set, each block of that many requests holds exactly one cold request
/// at a seed-drawn position, so every seed sends the same number of
/// misses.
pub fn build_mix(
    rng: &mut Rng,
    hot_cells: usize,
    per_conn: usize,
    cold_every: Option<usize>,
) -> (Vec<Vec<Ask>>, Vec<JobSpec>) {
    let mut cold = Vec::new();
    let mut lists = Vec::new();
    for _ in 0..CONNECTIONS {
        let mut list = Vec::with_capacity(per_conn);
        let mut cold_at = cold_every.map(|k| rng.below(k));
        for i in 0..per_conn {
            if let (Some(k), Some(at)) = (cold_every, cold_at) {
                if i % k == at {
                    list.push(Ask::Cold(cold.len()));
                    cold.push(cold_job(rng));
                    continue;
                }
                if i % k == k - 1 {
                    cold_at = Some(rng.below(k));
                }
            }
            list.push(Ask::Hot(rng.below(hot_cells)));
        }
        lists.push(list);
    }
    (lists, cold)
}

/// A running server and its address.
pub struct Serving {
    server: RunningServer,
    addr: String,
}

fn serve_config(journals: &[(Table, PathBuf)]) -> ServeConfig {
    ServeConfig {
        workers: CONNECTIONS,
        preload: journals.iter().map(|(t, p)| (t.name().to_string(), p.clone())).collect(),
        ..ServeConfig::default()
    }
}

/// Starts the server: binds, preloads `journals` and spawns the workers.
pub fn start(journals: &[(Table, PathBuf)]) -> Result<Serving, String> {
    let server =
        bvc_serve::start(serve_config(journals)).map_err(|e| format!("serve start: {e}"))?;
    let addr = server.local_addr().to_string();
    Ok(Serving { server, addr })
}

pub fn stop(serving: Serving) {
    serving.server.stop();
}

/// Reads `/metrics` and stops the server.
pub fn finish(serving: Serving) -> Result<String, String> {
    let metrics = fetch(&serving.addr, "/metrics").map(|(_, body)| body);
    serving.server.stop();
    metrics
}

/// One window: a run of consecutive requests, equal in number, across
/// all connections.
pub struct Window {
    /// Client-side latency of each request, in start order (ns).
    pub latencies_ns: Vec<u64>,
    /// First request start to last request end.
    pub span: Duration,
}

impl Window {
    pub fn rps(&self) -> f64 {
        self.latencies_ns.len() as f64 / self.span.as_secs_f64().max(1e-9)
    }
}

/// What one slice of the closed loop measured.
#[derive(Default)]
pub struct Slice {
    pub windows: Vec<Window>,
    /// Hot requests answered as expected, and not.
    pub ok: u64,
    pub failed: u64,
    /// `(cold index, value bits)` of each cold answer (`None` on an
    /// error or a cache hit). Cold requests are not in `ok` or `failed`.
    pub cold_bits: Vec<(usize, Option<u64>)>,
    pub wall: Duration,
}

/// Sends slice `part` of `parts` equal slices of every connection's
/// request list, each connection on its own keep-alive socket, and splits
/// the requests by start time into windows of `window` requests (the
/// last window takes the remainder).
pub fn serve_slice(
    serving: &Serving,
    hot: &[(String, String, u64)],
    mix: &[Vec<Ask>],
    cold: &[JobSpec],
    (part, parts): (usize, usize),
    window: usize,
) -> Result<Slice, String> {
    let cold_urls: Vec<String> = cold.iter().map(cells::url).collect();
    let origin = Instant::now();
    let results: Vec<Result<ClientRun, String>> = thread::scope(|scope| {
        let handles: Vec<_> = mix
            .iter()
            .map(|list| {
                let len = list.len().div_ceil(parts);
                let slice = &list[(part * len).min(list.len())..((part + 1) * len).min(list.len())];
                let (addr, cold_urls) = (&serving.addr, &cold_urls);
                scope.spawn(move || run_client(addr, hot, cold_urls, slice, origin))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let mut out = Slice { wall: origin.elapsed(), ..Slice::default() };
    let mut timed: Vec<(u64, u64)> = Vec::new();
    for r in results {
        let r = r?;
        timed.extend(r.timed);
        out.ok += r.ok;
        out.failed += r.failed;
        out.cold_bits.extend(r.cold_bits);
    }
    timed.sort_unstable();
    let count = (timed.len() / window.max(1)).max(1);
    let per = timed.len().div_ceil(count).max(1);
    for chunk in timed.chunks(per) {
        let first = chunk[0].0;
        let last = chunk.iter().map(|(start, lat)| start + lat).max().unwrap_or(first);
        out.windows.push(Window {
            latencies_ns: chunk.iter().map(|&(_, l)| l).collect(),
            span: Duration::from_nanos(last - first),
        });
    }
    Ok(out)
}

struct ClientRun {
    /// `(start, latency)` of every request, in ns since the slice origin.
    timed: Vec<(u64, u64)>,
    ok: u64,
    failed: u64,
    cold_bits: Vec<(usize, Option<u64>)>,
}

fn run_client(
    addr: &str,
    hot: &[(String, String, u64)],
    cold_urls: &[String],
    list: &[Ask],
    origin: Instant,
) -> Result<ClientRun, String> {
    let mut stream = connect(addr)?;
    let mut run = ClientRun {
        timed: Vec::with_capacity(list.len()),
        ok: 0,
        failed: 0,
        cold_bits: Vec::new(),
    };
    let mut buf = Vec::with_capacity(1024);
    for ask in list {
        let path = match *ask {
            Ask::Hot(i) => &hot[i].0,
            Ask::Cold(i) => &cold_urls[i],
        };
        let t0 = Instant::now();
        let answer = round_trip(&mut stream, path, &mut buf);
        run.timed.push(((t0 - origin).as_nanos() as u64, t0.elapsed().as_nanos() as u64));
        let body = match answer {
            Ok(200) => std::str::from_utf8(&buf).unwrap_or(""),
            Ok(_) => "",
            Err(_) => {
                // A dropped keep-alive connection is a miss; reconnect for
                // the rest of the list.
                stream = connect(addr)?;
                ""
            }
        };
        let bits = field(body, "value_bits").and_then(bvc_journal::f64_from_hex).map(f64::to_bits);
        let good = match *ask {
            Ask::Hot(i) => {
                let (_, key, want) = &hot[i];
                field(body, "cache") == Some("hit")
                    && field(body, "key") == Some(key)
                    && bits == Some(*want)
            }
            Ask::Cold(i) => {
                // Checked against a fresh solve once the load is over.
                let miss = field(body, "cache") == Some("miss");
                run.cold_bits.push((i, bits.filter(|_| miss)));
                continue;
            }
        };
        if good {
            run.ok += 1;
        } else {
            run.failed += 1;
        }
    }
    Ok(run)
}

/// The string value of `"name":"..."` in a flat JSON body.
fn field<'a>(body: &'a str, name: &str) -> Option<&'a str> {
    let pat = format!("\"{name}\":\"");
    let start = body.find(&pat)? + pat.len();
    let len = body[start..].find('"')?;
    Some(&body[start..start + len])
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| format!("timeout: {e}"))?;
    Ok(stream)
}

/// One keep-alive GET; leaves the body in `body` and returns the status.
fn round_trip(stream: &mut TcpStream, path: &str, body: &mut Vec<u8>) -> Result<u16, String> {
    let req = format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n");
    stream.write_all(req.as_bytes()).map_err(|e| format!("write: {e}"))?;
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("eof before response".into());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|e| format!("head: {e}"))?;
    let status: u16 =
        head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or("bad status line")?;
    let length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length").then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0);
    body.clear();
    body.extend_from_slice(&buf[head_end + 4..]);
    while body.len() < length {
        let n = stream.read(&mut chunk).map_err(|e| format!("read body: {e}"))?;
        if n == 0 {
            return Err("eof mid-body".into());
        }
        body.extend_from_slice(&chunk[..n]);
    }
    Ok(status)
}

/// A one-off GET on a fresh connection: `(status, body)`.
fn fetch(addr: &str, path: &str) -> Result<(u16, String), String> {
    let mut stream = connect(addr)?;
    let mut body = Vec::new();
    let status = round_trip(&mut stream, path, &mut body)?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

/// A counter of the text exposition (`name value` lines).
pub fn metric(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| {
            let (n, v) = l.split_once(' ')?;
            (n == name).then(|| v.trim().parse().ok())?
        })
        .unwrap_or(0.0)
}

fn get(path_and_query: &str) -> Request {
    let (path, query) = path_and_query.split_once('?').unwrap_or((path_and_query, ""));
    Request {
        method: "GET".into(),
        path: path.into(),
        query: parse_query(query),
        headers: Vec::new(),
        body: Vec::new(),
        wants_close: false,
    }
}

/// In-process `Service::handle` times: the median over `hits` calls on
/// preloaded keys (µs) and over calls on the `cold` keys (ms). Returns
/// `None` if any call is not answered as expected.
pub fn handle_probe(
    journals: &[(Table, PathBuf)],
    hot: &[(String, String, u64)],
    hits: usize,
    cold: &[JobSpec],
) -> Option<(f64, f64)> {
    let service = Service::new(&serve_config(journals));
    for (table, path) in journals {
        service.cache().preload_journal(path, &config_token(table.name()));
    }
    let hot_reqs: Vec<Request> = hot.iter().map(|(url, _, _)| get(url)).collect();
    let mut hit_ns = Vec::with_capacity(hits);
    for i in 0..hits {
        let t0 = Instant::now();
        let resp = service.handle(&hot_reqs[i % hot_reqs.len()]);
        hit_ns.push(t0.elapsed().as_nanos() as u64);
        if resp.status != 200 {
            return None;
        }
    }
    let mut miss_ns = Vec::with_capacity(cold.len());
    for job in cold {
        let req = get(&cells::url(job));
        let t0 = Instant::now();
        let resp = service.handle(&req);
        miss_ns.push(t0.elapsed().as_nanos() as u64);
        if resp.status != 200 {
            return None;
        }
    }
    hit_ns.sort_unstable();
    miss_ns.sort_unstable();
    Some((quantile(&hit_ns, 0.5) as f64 / 1e3, quantile(&miss_ns, 0.5) as f64 / 1e6))
}
