// served_open_loop: an in-process serve::Server on loopback, driven by an
// open-loop generator -- Poisson arrivals over 4 connections, one generator
// thread per connection, every request timed from its scheduled send time.
// A warm-up step, two fixed rate steps (low, high) and a saturation step are
// followed by a bisection on offered rate for the highest rate that meets
// the latency limit without a growing backlog. Not listed in BENCHMARK.json
// while concurrent reads can crash the server (see README.md).
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "focq/serve/protocol.h"
#include "focq/serve/server.h"
#include "focq/serve/socket_util.h"
#include "focq/structure/io.h"
#include "stats.h"
#include "statements.h"

namespace perfbench {
namespace {

namespace serve = focq::serve;

constexpr int kConnections = 4;
// One update in 16 statements: all of them go over connection 0 (a quarter
// of its arrivals), so they are admitted in the order they were generated
// and every one changes the structure.
constexpr double kConn0UpdateShare = 0.25;

serve::FrameKind WireKind(Kind kind) {
  switch (kind) {
    case Kind::kCheck: return serve::FrameKind::kCheck;
    case Kind::kCount: return serve::FrameKind::kCount;
    case Kind::kTerm: return serve::FrameKind::kTerm;
    case Kind::kUpdate: return serve::FrameKind::kUpdate;
  }
  return serve::FrameKind::kPing;
}

struct Request {
  Statement st;
  std::uint32_t id = 0;        // also the trace id (request index + 1)
  std::int64_t offset_ns = 0;  // scheduled send, relative to step start
  std::int64_t scheduled_ns = 0, sent_ns = 0, recv_ns = 0;
  std::int64_t codec_ns = 0;   // client-side encode + decode
  bool done = false, ok = false;
  std::string answer;
  std::uint64_t seq = 0;
};

// The traffic model: seeded arrival times, the read mix and the update
// stream, all persistent across rate steps.
class Traffic {
 public:
  Traffic(std::uint64_t seed, const focq::Structure& initial)
      : reads_(ServedFamily(), seed * 7919 + 4, /*repeat_share=*/0.0,
               /*unique=*/false),
        updates_(initial, seed * 7919 + 5),
        rng_(seed * 7919 + 6) {}

  std::vector<std::vector<Request>> Schedule(double rate, double seconds) {
    std::vector<std::vector<Request>> out(kConnections);
    const double per_conn = rate / kConnections;
    for (int c = 0; c < kConnections; ++c) {
      double t = 0;
      for (;;) {
        t += -std::log(1.0 - rng_.NextDouble()) / per_conn;
        if (t >= seconds) break;
        Request r;
        const bool update = c == 0 && rng_.NextDouble() < kConn0UpdateShare;
        r.st = update ? updates_.Next() : reads_.Next();
        r.id = ++next_id_;
        r.offset_ns = static_cast<std::int64_t>(t * 1e9);
        out[c].push_back(std::move(r));
      }
    }
    return out;
  }

  std::uint32_t NextId() { return ++next_id_; }

 private:
  ReadStream reads_;
  UpdateStream updates_;
  focq::Rng rng_;
  std::uint32_t next_id_ = 0;
};

bool SendRequest(int fd, Request* r, SpanRecorder* spans) {
  serve::Request wire_request;
  wire_request.kind = WireKind(r->st.kind);
  wire_request.id = r->id;
  wire_request.flags = serve::kRequestFlagTraceId;
  wire_request.trace_id = r->id;
  wire_request.text = r->st.text;
  Scope send(spans, "serve.send", r->id);
  const std::int64_t t0 = NowNs();
  std::string wire;
  serve::AppendRequestFrame(&wire, wire_request);
  r->sent_ns = NowNs();
  r->codec_ns += r->sent_ns - t0;
  return serve::SendAll(fd, wire).ok();
}

// Drains whatever the socket has; returns false on a dead connection.
bool ReceiveSome(int fd, serve::FrameDecoder* decoder,
                 std::unordered_map<std::uint32_t, Request*>* pending,
                 std::atomic<std::int64_t>* inflight, std::size_t* received,
                 SpanRecorder* spans) {
  focq::Result<std::string> chunk = serve::RecvSome(fd);
  if (!chunk.ok() || chunk->empty()) return false;
  decoder->Feed(*chunk);
  for (;;) {
    const std::int64_t t0 = NowNs();
    focq::Result<std::optional<serve::Frame>> next = decoder->Next();
    if (!next.ok()) return false;
    if (!next->has_value()) break;
    focq::Result<serve::Response> response = serve::DecodeResponse(**next);
    const std::int64_t t1 = NowNs();
    if (!response.ok()) return false;
    auto it = pending->find(response->id);
    if (it == pending->end()) continue;
    Request* r = it->second;
    pending->erase(it);
    r->recv_ns = t1;
    r->codec_ns += t1 - t0;
    r->done = true;
    r->ok = response->ok;
    r->answer = response->text;
    r->seq = response->seq;
    spans->Add({"serve.receive", t0, t1, -1, r->id, 0});
    inflight->fetch_sub(1, std::memory_order_relaxed);
    ++*received;
  }
  return true;
}

// One generator thread: sends its connection's requests on schedule and
// reads responses in between, waiting in ppoll until the next send is due.
void Drive(int fd, std::vector<Request>* requests, std::int64_t start_ns,
           std::int64_t give_up_ns, std::atomic<std::int64_t>* inflight,
           SpanRecorder* spans) {
  serve::FrameDecoder decoder;
  std::unordered_map<std::uint32_t, Request*> pending;
  std::size_t next = 0, received = 0;
  const std::size_t n = requests->size();
  while (received < n) {
    std::int64_t now = NowNs();
    while (next < n && now >= start_ns + (*requests)[next].offset_ns) {
      Request* r = &(*requests)[next++];
      r->scheduled_ns = start_ns + r->offset_ns;
      pending[r->id] = r;
      inflight->fetch_add(1, std::memory_order_relaxed);
      if (!SendRequest(fd, r, spans)) return;
      now = NowNs();
    }
    if (now > give_up_ns) return;
    std::int64_t wait_ns =
        next < n ? start_ns + (*requests)[next].offset_ns - now : 20'000'000;
    wait_ns = std::max<std::int64_t>(0, wait_ns);
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    pollfd p{fd, POLLIN, 0};
    if (ppoll(&p, 1, &ts, nullptr) > 0 &&
        !ReceiveSome(fd, &decoder, &pending, inflight, &received, spans)) {
      return;
    }
  }
}

struct Step {
  std::string name;
  double rate = 0;
  std::vector<double> latency_ms;  // from scheduled send; +inf on failure
  std::vector<double> lag_ms;
  std::int64_t requests = 0;
  double inflight_mid = 0, inflight_end = 0;
  bool growing = false, valid = false, meets = false;
  double p50 = 0, p99 = 0, lag_p99 = 0;
  double completion_rps = 0;  // completed / (last response - step start)
};

struct Rig {
  std::optional<focq::Structure> a;
  std::unique_ptr<serve::Server> server;
  std::vector<int> fds;
  std::vector<Request> log;  // every request, priming included
};

void CloseRig(SpanRecorder* spans, Rig* rig) {
  Scope teardown(spans, "structure.teardown", -1);
  for (int fd : rig->fds) serve::CloseFd(fd);
  rig->fds.clear();
  if (rig->server != nullptr) rig->server->Stop();
  rig->server.reset();
  rig->a.reset();
}

class ServedRun {
 public:
  ServedRun(const Config& cfg, const std::string& text, Instruments* ins)
      : cfg_(cfg), text_(text), ins_(ins) {}

  // Loads the input, starts the server, connects and primes the server's
  // context with one request per template.
  bool SetUp(Outcome* out) {
    rig_.log.clear();
    {
      Scope load(&ins_->spans, "structure.load", -1);
      focq::Result<focq::Structure> loaded = focq::ReadStructure(text_);
      if (!loaded.ok()) {
        out->Problem("input does not load: " + loaded.status().ToString());
        return false;
      }
      rig_.a.emplace(std::move(loaded).value());
    }
    {
      Scope create(&ins_->spans, "serve.server_create", -1);
      serve::ServeOptions so;
      so.port = 0;
      so.metrics_port = ins_->enabled ? 0 : -1;
      so.eval = MakeEvalOptions(focq::TermEngine::kBall,
                                static_cast<int>(cfg_.Num("threads")), nullptr);
      so.deadline_ms = 0;
      so.trace = ins_->trace_sink();
      rig_.server = std::make_unique<serve::Server>(&*rig_.a, so);
      if (focq::Status s = rig_.server->Start(); !s.ok()) {
        out->Problem("server does not start: " + s.ToString());
        return false;
      }
      for (int c = 0; c < kConnections; ++c) {
        focq::Result<int> fd = serve::ConnectLoopback(rig_.server->port());
        if (!fd.ok()) {
          out->Problem("cannot connect: " + fd.status().ToString());
          return false;
        }
        rig_.fds.push_back(*fd);
      }
    }
    traffic_.emplace(cfg_.seed, *rig_.a);
    std::vector<Request> prime;
    for (const Template& t : ServedFamily()) {
      Request r;
      r.st = {t.kind, Instantiate(t, t.a_lo, t.b_lo)};
      r.id = traffic_->NextId();
      prime.push_back(std::move(r));
    }
    std::atomic<std::int64_t> inflight{0};
    SpanRecorder none(false);
    Drive(rig_.fds[0], &prime, NowNs(), NowNs() + 60'000'000'000, &inflight,
          &none);
    for (Request& r : prime) {
      if (!r.done || !r.ok) {
        out->Problem("priming '" + r.st.text + "' failed: " + r.answer);
        return false;
      }
      rig_.log.push_back(std::move(r));
    }
    return true;
  }

  void TearDown() { CloseRig(&ins_->spans, &rig_); }

  Step RunStep(const std::string& name, double rate, double seconds,
               Outcome* out) {
    Step step;
    step.name = name;
    step.rate = rate;
    std::vector<std::vector<Request>> sched = traffic_->Schedule(rate, seconds);
    std::atomic<std::int64_t> inflight{0};
    const std::int64_t start = NowNs() + 2'000'000;
    const std::int64_t length = static_cast<std::int64_t>(seconds * 1e9);
    std::vector<std::unique_ptr<SpanRecorder>> lanes;
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      lanes.push_back(std::make_unique<SpanRecorder>(ins_->enabled));
      threads.emplace_back(Drive, rig_.fds[c], &sched[c], start,
                           start + length + 60'000'000'000, &inflight,
                           lanes.back().get());
    }
    // Backlog: mean in-flight count over [40%, 50%) and [90%, 100%) of the
    // step, sampled every millisecond.
    auto window_mean = [&](double from, double to) {
      double sum = 0;
      int samples = 0;
      for (std::int64_t t = start + static_cast<std::int64_t>(from * length);
           t < start + static_cast<std::int64_t>(to * length);
           t += 1'000'000) {
        std::this_thread::sleep_until(
            std::chrono::steady_clock::time_point(std::chrono::nanoseconds(t)));
        sum += static_cast<double>(inflight.load(std::memory_order_relaxed));
        ++samples;
      }
      return samples == 0 ? 0.0 : sum / samples;
    };
    step.inflight_mid = window_mean(0.4, 0.5);
    step.inflight_end = window_mean(0.9, 1.0);
    for (std::thread& t : threads) t.join();
    for (int c = 0; c < kConnections; ++c) {
      for (Span s : lanes[c]->spans()) {
        s.lane = c + 1;
        ins_->spans.Add(std::move(s));
      }
    }
    const double inf = std::numeric_limits<double>::infinity();
    std::int64_t last_recv = start, completed = 0, lost = 0;
    for (std::vector<Request>& conn : sched) {
      for (Request& r : conn) {
        ++step.requests;
        if (!r.done) {  // connection died or the step never drained
          ++lost;
          step.latency_ms.push_back(inf);
          continue;
        }
        ++completed;
        last_recv = std::max(last_recv, r.recv_ns);
        step.lag_ms.push_back(Ms(r.scheduled_ns, r.sent_ns));
        step.latency_ms.push_back(r.ok ? Ms(r.scheduled_ns, r.recv_ns) : inf);
        rig_.log.push_back(std::move(r));
      }
    }
    if (lost > 0) {
      out->failed += lost;
      out->Problem(std::to_string(lost) + " requests of step " + name +
                   " got no response");
    }
    step.completion_rps =
        Ratio(static_cast<double>(completed), Ms(start, last_recv) / 1e3);
    step.p50 = Percentile(step.latency_ms, 0.50);
    step.p99 = Percentile(step.latency_ms, 0.99);
    step.lag_p99 = Percentile(step.lag_ms, 0.99);
    step.growing = step.inflight_end > 1.25 * step.inflight_mid + 2.0;
    step.valid = step.lag_p99 <= cfg_.Num("lag_bound_ms");
    step.meets =
        step.valid && !step.growing && step.p99 <= cfg_.Num("limit_ms");
    char line[320];
    std::snprintf(line, sizeof(line),
                  "step %-8s offered %7.1f req/s: n=%lld p50=%.3f ms "
                  "p99=%.3f ms lag_p99=%.3f ms inflight mid/end=%.1f/%.1f "
                  "done %.1f/s%s%s -> %s",
                  name.c_str(), rate, static_cast<long long>(step.requests),
                  step.p50, step.p99, step.lag_p99, step.inflight_mid,
                  step.inflight_end, step.completion_rps,
                  step.growing ? " GROWING" : "",
                  step.valid ? "" : " INVALID(generator lag)",
                  step.meets ? "meets" : "misses");
    out->Line(line);
    return step;
  }

  Rig& rig() { return rig_; }

 private:
  const Config& cfg_;
  const std::string& text_;
  Instruments* ins_;
  Rig rig_;
  std::optional<Traffic> traffic_;
};

struct PassResult {
  Step low, high;
  double max_rate = 0;  // 0: no tested rate meets the limit
  double capacity = 0;
  std::vector<Request> log;
  std::int64_t from_ns = 0, to_ns = 0;
  PoolSnapshot pool_before, pool_after;
  double peak_rss_mb = 0;
  std::int64_t measured = 0;
  focq::EvalMetrics server_metrics;
  std::string scrape;
};

// HTTP/1.0 GET of the server's OpenMetrics endpoint.
std::string Scrape(int port) {
  focq::Result<int> fd =
      serve::ConnectLoopback(static_cast<std::uint16_t>(port));
  if (!fd.ok()) return "";
  std::string body;
  if (serve::SendAll(*fd, "GET /metrics HTTP/1.0\r\n\r\n").ok()) {
    for (;;) {
      focq::Result<std::string> chunk = serve::RecvSome(*fd);
      if (!chunk.ok() || chunk->empty()) break;
      body += *chunk;
    }
  }
  serve::CloseFd(*fd);
  return body;
}

double ScrapedValue(const std::string& scrape, const std::string& name) {
  std::size_t pos = 0;
  while ((pos = scrape.find(name, pos)) != std::string::npos) {
    const std::size_t bol = scrape.rfind('\n', pos);
    const std::size_t eol = scrape.find('\n', pos);
    const std::string line = scrape.substr(
        bol == std::string::npos ? 0 : bol + 1,
        (eol == std::string::npos ? scrape.size() : eol) -
            (bol == std::string::npos ? 0 : bol + 1));
    pos += name.size();
    if (line.empty() || line[0] == '#') continue;
    return std::stod(line.substr(line.rfind(' ') + 1));
  }
  return 0;
}

PassResult Pass(const Config& cfg, const std::string& text, Instruments* ins,
                std::vector<double>* setup_s, Outcome* out) {
  PassResult r;
  ServedRun run(cfg, text, ins);
  for (int rep = 0; rep < kSetUps; ++rep) {
    if (rep > 0) run.TearDown();
    const std::int64_t t0 = NowNs();
    if (!run.SetUp(out)) return r;
    if (setup_s != nullptr) setup_s->push_back(Ms(t0, NowNs()) / 1e3);
  }
  const double low_rps = cfg.Num("low_rps"), high_rps = cfg.Num("high_rps");
  r.pool_before = TakePoolSnapshot();
  r.from_ns = NowNs();
  // Shares of the run: warm-up 10% (checked, not reported), low and high
  // 25% each, saturation 10%, bisection the remaining 30% in 5 steps.
  std::vector<Step> steps;
  steps.push_back(run.RunStep("warmup", low_rps, cfg.seconds * 0.10, out));
  r.low = run.RunStep("low", low_rps, cfg.seconds * 0.25, out);
  r.high = run.RunStep("high", high_rps, cfg.seconds * 0.25, out);
  // Capacity: offered far above what the server completes, the completion
  // rate is its throughput ceiling.
  const Step sat =
      run.RunStep("saturate", cfg.Num("saturate_rps"), cfg.seconds * 0.10, out);
  r.capacity = sat.completion_rps;
  steps.insert(steps.end(), {r.low, r.high, sat});
  // Bisection (geometric, to 5%) between the best fixed step that meets the
  // limit and the capacity, above which the backlog must grow.
  double lo = r.high.meets ? high_rps : r.low.meets ? low_rps : 0.0;
  double hi = r.capacity;
  for (int i = 0; i < 5 && lo > 0 && hi > lo * 1.05; ++i) {
    const double rate = std::sqrt(lo * hi);
    const Step s = run.RunStep("bisect", rate, cfg.seconds * 0.06, out);
    steps.push_back(s);
    (s.meets ? lo : hi) = rate;
  }
  r.max_rate = lo;
  r.to_ns = NowNs();
  r.pool_after = TakePoolSnapshot();
  r.peak_rss_mb = PeakRssMb();
  for (const Step& s : steps) r.measured += s.requests;
  r.server_metrics = run.rig().server->metrics().Snapshot();
  if (ins->enabled) r.scrape = Scrape(run.rig().server->metrics_port());
  r.log = std::move(run.rig().log);
  run.TearDown();
  return r;
}

struct ReplayResult {
  std::int64_t evaluated_reads = 0, updates = 0;
  std::int64_t from_ns = 0, to_ns = 0;
};

// Answer check, outside the timed region: every response, in admission
// (seq) order, must equal a serial replay through one Session over a fresh
// copy of the input -- the server's documented contract. Reads of an
// unchanged structure are evaluated once per distinct text.
ReplayResult Replay(const Config& cfg, const std::string& text,
                    std::vector<Request>* log, Instruments* ins, Outcome* out) {
  ReplayResult rr;
  std::sort(log->begin(), log->end(),
            [](const Request& a, const Request& b) { return a.seq < b.seq; });
  focq::Result<focq::Structure> loaded = focq::ReadStructure(text);
  if (!loaded.ok()) {
    out->Problem("replay input does not load");
    return rr;
  }
  focq::Structure b = std::move(loaded).value();
  focq::Session serial(&b, MakeEvalOptions(focq::TermEngine::kBall,
                                           static_cast<int>(cfg.Num("threads")),
                                           ins));
  std::map<std::string, std::string> memo;  // cleared by every update
  std::int64_t mismatches = 0;
  rr.from_ns = NowNs();
  for (std::size_t i = 0; i < log->size(); ++i) {
    const Request& r = (*log)[i];
    const std::string key = std::string(KindWord(r.st.kind)) + " " + r.st.text;
    std::string want;
    auto hit = memo.find(key);
    if (r.st.kind != Kind::kUpdate && hit != memo.end()) {
      want = hit->second;
    } else {
      const int op_span = ins->spans.Begin("op", static_cast<std::int64_t>(i));
      focq::Result<std::string> w = Execute(serial, r.st, &ins->spans, r.id);
      ins->spans.End(op_span);
      want = w.ok() ? *w : w.status().ToString();
      if (r.st.kind == Kind::kUpdate) {
        memo.clear();
        ++rr.updates;
      } else {
        memo[key] = want;
        ++rr.evaluated_reads;
      }
    }
    if (r.ok && r.answer == want &&
        (r.st.kind != Kind::kUpdate || want == "applied")) {
      continue;
    }
    ++mismatches;
    if (mismatches <= 5) {
      out->Problem("seq " + std::to_string(r.seq) + " '" + r.st.text +
                   "': served " + (r.ok ? "" : "error ") + r.answer +
                   " != replay " + want);
    }
  }
  rr.to_ns = NowNs();
  out->failed += mismatches;
  out->Line("answer check: " + std::to_string(log->size()) +
            " responses replayed in seq order through one Session (" +
            std::to_string(rr.evaluated_reads) + " distinct reads evaluated, " +
            std::to_string(rr.updates) + " updates)");
  return rr;
}

}  // namespace

Outcome RunServed(const Config& cfg) {
  Outcome out;
  const std::size_t n = static_cast<std::size_t>(cfg.Num("n"));
  const int threads = static_cast<int>(cfg.Num("threads"));
  const std::string text = MakeInputText("bounded4", n, cfg.seed);
  out.Line("served_open_loop: bounded-degree (max 4) n=" + std::to_string(n) +
           " ||A||=" + std::to_string(SizeNorm(text)) +
           ", kLocal/kBall, eval.num_threads=" + std::to_string(threads) +
           ", " + std::to_string(kConnections) +
           " connections, latency limit p99 <= " +
           std::to_string(static_cast<int>(cfg.Num("limit_ms"))) + " ms");

  std::vector<double> setup_s;
  Instruments off(false);
  PassResult plain = Pass(cfg, text, &off, &setup_s, &out);
  if (plain.measured == 0) return out;  // set-up failed
  CheckThreadContract(threads, plain.pool_before, plain.pool_after, &out);
  out.attempted += plain.measured;
  Replay(cfg, text, &plain.log, &off, &out);
  out.Set("setup_s", Median(setup_s), "s");
  out.Set("served_p50_ms.low", plain.low.p50, "ms");
  out.Set("served_p99_ms.low", plain.low.p99, "ms");
  out.Set("served_p50_ms.high", plain.high.p50, "ms");
  out.Set("served_p99_ms.high", plain.high.p99, "ms");
  out.Set("max_rate_rps", plain.max_rate, "req/s");
  out.Set("capacity_rps", plain.capacity, "req/s");
  out.Set("op_p50_ms", plain.high.p50, "ms");
  out.Set("op_tail_ms", plain.low.p99, "ms");
  out.Set("ops_per_s", plain.capacity, "op/s");
  out.Set("peak_rss_mb", plain.peak_rss_mb, "MB");
  if (!cfg.trace) return out;

  Instruments ins(true);
  PassResult traced = Pass(cfg, text, &ins, nullptr, &out);
  if (traced.measured == 0) return out;
  out.attempted += traced.measured;
  // Client and server spans of the measured window, before the replay adds
  // its own.
  std::vector<double> lag_ms, codec_us;
  std::unordered_map<std::uint64_t, const Request*> by_trace;
  for (const Request& r : traced.log) {
    if (r.sent_ns < traced.from_ns) continue;
    lag_ms.push_back(Ms(r.scheduled_ns, r.sent_ns));
    codec_us.push_back(static_cast<double>(r.codec_ns) / 1e3);
    by_trace[r.id] = &r;
  }
  std::unordered_map<std::uint64_t, std::int64_t> server_ns;
  for (const focq::WorkerSlice& s : ins.trace.LaneSpans()) {
    const std::size_t hash = s.span_name.find('#');
    if (hash == std::string::npos) continue;
    server_ns[std::stoull(s.span_name.substr(hash + 1), nullptr, 16)] +=
        s.duration_ns;
  }
  double wall = 0, covered = 0;
  for (const auto& [id, r] : by_trace) {
    wall += static_cast<double>(r->recv_ns - r->sent_ns);
    covered += static_cast<double>(server_ns[id] + r->codec_ns);
  }

  // The server evaluates on pool workers, where program spans cannot nest,
  // so the engine layers are measured on the serial replay of the same
  // statements, which runs with the same instruments.
  const ReplayResult rr = Replay(cfg, text, &traced.log, &ins, &out);
  LayerInputs in;
  in.ins = &ins;
  in.program = ProgramSpans(ins.trace, ins.trace_epoch_ns);
  in.from_ns = rr.from_ns;
  in.to_ns = rr.to_ns;
  in.reads = rr.evaluated_reads;
  in.updates = rr.updates;
  in.counters = ins.metrics.Snapshot();
  // Pool work is the server's, per request over the measured steps.
  in.pool_before = traced.pool_before;
  in.pool_after = traced.pool_after;
  in.pool_ops = traced.measured;
  {
    focq::Result<focq::Structure> copy_source = focq::ReadStructure(text);
    if (copy_source.ok()) in.copy_ms = TimeCopies(*copy_source, 5, &ins.spans);
  }
  AddLayerMetrics(in, &out);
  auto dist_ms = [&](const std::string& name, double q) {
    auto it = traced.server_metrics.values.find(name);
    return it == traced.server_metrics.values.end()
               ? 0.0
               : it->second.Quantile(q) / 1e6;
  };
  out.Set("serve.exec_ms.p50", dist_ms("serve.request_ns", 0.5), "ms");
  out.Set("serve.exec_ms.p99", dist_ms("serve.request_ns", 0.99), "ms");
  out.Set("serve.queue_wait_ms.p50", dist_ms("serve.queue_wait_ns", 0.5), "ms");
  out.Set("serve.queue_wait_ms.p99", dist_ms("serve.queue_wait_ns", 0.99),
          "ms");
  out.Set("serve.gate_wait_ms.p50", dist_ms("serve.gate_wait_ns", 0.5), "ms");
  out.Set("serve.gate_wait_ms.p99", dist_ms("serve.gate_wait_ns", 0.99), "ms");
  out.Set("serve.queue_full_waits",
          ScrapedValue(traced.scrape, "serve_queue_full_waits"), "count");
  out.Set("serve.codec_us", Median(codec_us), "us");
  out.Set("gen.lag_ms", Percentile(lag_ms, 0.99), "ms");
  out.Set("op.unattributed_share", Ratio(wall - covered, wall), "fraction");
  out.Set("obs.trace_overhead_pct",
          100.0 * (Ratio(traced.low.p50, plain.low.p50, 1.0) - 1.0), "%");
  WriteChromeTrace(cfg, ins.spans.spans(), ins.trace_epoch_ns,
                   ins.trace.ToChromeTracing(), &out);
  return out;
}

}  // namespace perfbench
