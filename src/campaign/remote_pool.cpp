#include "campaign/remote_pool.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/digest.h"
#include "campaign/remote_protocol.h"
#include "common/files.h"
#include "common/logging.h"
#include "common/mac.h"
#include "common/proc.h"
#include "common/rng.h"
#include "common/strings.h"

namespace sos::campaign {

namespace {

using Clock = std::chrono::steady_clock;

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// The chaos "torn frame" write, socket edition: a length prefix
/// announcing the full payload followed by only half of it. To the
/// coordinator this is exactly a worker dying mid-result.
void write_torn_frame(int fd, const std::string& payload) {
  std::string wire;
  common::append_u32le(wire, static_cast<std::uint32_t>(payload.size()));
  wire.append(payload.data(), payload.size() / 2);
  [[maybe_unused]] const ::ssize_t n = ::write(fd, wire.data(), wire.size());
}

/// The chaos "object bitflip" fault: flip one deterministic bit (derived
/// from the digest) of the freshly written store object, in place —
/// simulating at-rest damage that bypasses the atomic-write protocol.
void flip_object_bit(const std::string& path, const std::string& digest) {
  auto bytes = common::read_file(path);
  if (!bytes || bytes->empty()) return;
  const std::uint64_t bit =
      common::mix64(fnv1a64(digest)) % (bytes->size() * 8);
  (*bytes)[bit / 8] = static_cast<char>(
      static_cast<unsigned char>((*bytes)[bit / 8]) ^ (1u << (bit % 8)));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes->data(), static_cast<std::streamsize>(bytes->size()));
}

constexpr const char* kJournalHeader = "sos-coordinator-journal v1\n";

}  // namespace

std::string coordinator_journal_path(const std::string& store_dir) {
  return (std::filesystem::path(store_dir) / "coordinator.journal").string();
}

void RemotePoolOptions::validate() const {
  if (local_workers < 0)
    throw std::invalid_argument("RemotePoolOptions: bad local_workers '" +
                                std::to_string(local_workers) +
                                "' (accepted: >= 0)");
  if (points_per_assign < 1)
    throw std::invalid_argument("RemotePoolOptions: bad points_per_assign '" +
                                std::to_string(points_per_assign) +
                                "' (accepted: >= 1)");
  if (!(heartbeat_interval_s > 0.0))
    throw std::invalid_argument(
        "RemotePoolOptions: bad heartbeat_interval_s '" +
        common::format_double(heartbeat_interval_s, 4) +
        "' (accepted: > 0 seconds)");
  if (!(heartbeat_timeout_s > heartbeat_interval_s))
    throw std::invalid_argument(
        "RemotePoolOptions: bad heartbeat_timeout_s '" +
        common::format_double(heartbeat_timeout_s, 4) +
        "' (accepted: > heartbeat_interval_s)");
  if (!(point_deadline_s > 0.0))
    throw std::invalid_argument("RemotePoolOptions: bad point_deadline_s '" +
                                common::format_double(point_deadline_s, 4) +
                                "' (accepted: > 0 seconds)");
  if (!(registration_timeout_s > 0.0))
    throw std::invalid_argument(
        "RemotePoolOptions: bad registration_timeout_s '" +
        common::format_double(registration_timeout_s, 4) +
        "' (accepted: > 0 seconds)");
  retry.validate();
  chaos.validate();
}

RemoteWorkerPool::RemoteWorkerPool(ScenarioSpec spec, RemotePoolOptions options)
    : runner_(std::move(spec),
              CampaignOptions{options.store_dir, nullptr, 1, nullptr}),
      options_(std::move(options)),
      listener_(common::Listener::bind_loopback(options_.listen_port)) {
  options_.validate();
}

CampaignReport RemoteWorkerPool::run() {
  common::ignore_sigpipe();

  const common::MacKey base_key = load_base_key(options_.key_file);

  const ResultStore& store = runner_.store();
  store.write_manifest(runner_.manifest_text());

  const int total = static_cast<int>(runner_.points().size());

  AttemptLedger ledger{total, options_.retry};

  // --- Coordinator crash-recovery journal. Every ledger mutation is
  // persisted atomically; a resume restart restores the charge state, so a
  // poison point keeps its spent attempts across coordinator deaths
  // instead of looping forever on a fresh budget. ---
  const std::string journal_path = coordinator_journal_path(store.dir());
  const std::string spec_digest = salted_digest(runner_.spec().canonical());
  const auto persist_journal = [&]() {
    common::write_file_atomic(journal_path,
                              std::string(kJournalHeader) +
                                  "spec_digest = " + spec_digest + "\n" +
                                  ledger.render_journal());
  };
  if (options_.resume) {
    if (const auto text = common::read_file(journal_path)) {
      const std::string_view header{kJournalHeader};
      const std::string expected =
          std::string(header) + "spec_digest = " + spec_digest + "\n";
      if (text->size() >= expected.size() &&
          text->compare(0, expected.size(), expected) == 0 &&
          ledger.restore_journal(text->substr(expected.size()))) {
        SOS_LOG_INFO() << "RemoteWorkerPool: resumed coordinator journal ("
                       << ledger.retried() << " retries charged so far)";
      } else {
        SOS_LOG_WARN() << "RemoteWorkerPool: ignoring malformed or "
                          "mismatched coordinator journal at "
                       << journal_path;
      }
    }
  } else {
    std::error_code ignored;
    std::filesystem::remove(journal_path, ignored);  // stale journal: fresh run
  }

  std::vector<char> done(static_cast<std::size_t>(total), 0);
  std::vector<char> quarantined(static_cast<std::size_t>(total), 0);
  std::deque<int> queue;
  int cached = 0;
  int done_count = 0;
  int quarantine_count = 0;
  for (int i = 0; i < total; ++i) {
    if (store.has(runner_.digest(i))) {
      done[static_cast<std::size_t>(i)] = 1;
      ++done_count;
      ++cached;
    } else {
      queue.push_back(i);  // includes previously quarantined points
    }
  }
  int computed = 0;

  const auto settled = [&]() { return done_count + quarantine_count == total; };

  // A session is one TCP peer. Lifecycle: kRegistering (accepted, no HELLO
  // yet) -> kLive (registered, assignable) -> kSuspended (evicted for
  // heartbeat silence; its work was reassigned, but the socket stays open
  // so a late result frame — the partitioned-worker case — is still
  // accepted and revives it) -> closed (dead=true, removed).
  enum class SessionState { kRegistering, kLive, kSuspended };
  struct Session {
    common::Socket sock;
    common::FrameBuffer frames;
    SessionState state = SessionState::kRegistering;
    std::uint64_t pid = 0;
    common::MacKey session_key;    // derived from the HELLO challenge
    std::vector<int> outstanding;  // assigned, undelivered, in compute order
    Clock::time_point last_heard;
    Clock::time_point deadline;  // meaningful while outstanding is nonempty
    bool dead = false;
  };
  std::vector<Session> sessions;

  std::vector<common::Subprocess> children;
  // How each reaped local child ended, by pid: its session's EOF may be
  // drained only after the reap pass has already dropped the child.
  std::map<std::uint64_t, std::string> reaped_exits;
  int respawns = 0;
  const int max_respawns = 32 + 8 * total;  // chaos-respawn storm backstop

  const auto spawn_child = [&]() {
    RemoteWorkerConfig config;
    config.host = "127.0.0.1";
    config.port = listener_.port();
    config.heartbeat_interval_s = options_.heartbeat_interval_s;
    config.connect_timeout_s = options_.registration_timeout_s;
    config.chaos = options_.chaos;
    config.key_file = options_.key_file;
    // The child inherits the listening fd across fork; close it so an
    // orphaned worker (coordinator SIGKILLed) cannot keep the port bound
    // and block the crash-recovery restart from rebinding it.
    const int listener_fd = listener_.fd();
    children.push_back(common::Subprocess::spawn(
        [config, listener_fd]() {
          ::close(listener_fd);
          return run_remote_worker(config);
        }));
  };

  const auto heartbeat_budget = to_duration(options_.heartbeat_timeout_s);
  const auto deadline_budget = to_duration(options_.point_deadline_s);
  const auto beat_every = to_duration(options_.heartbeat_interval_s);
  const auto registration_budget = to_duration(options_.registration_timeout_s);

  // Inner (unsealed) messages; every send seals under the session's key.
  const std::string welcome_inner = encode_welcome(runner_.spec().canonical());
  const std::string heartbeat_inner = encode_heartbeat();

  // Requeues indices at the queue front preserving their order, skipping
  // anything finished, quarantined, or already queued.
  const auto requeue_front = [&](const std::vector<int>& indices) {
    for (auto it = indices.rbegin(); it != indices.rend(); ++it) {
      const auto slot = static_cast<std::size_t>(*it);
      if (done[slot] || quarantined[slot]) continue;
      if (std::find(queue.begin(), queue.end(), *it) != queue.end()) continue;
      queue.push_front(*it);
    }
  };

  // Charges the poison point of a failed session — the first unfinished
  // outstanding one, since workers compute in order — and requeues the
  // innocent rest. The session keeps running only if `suspend` (heartbeat
  // silence with a chance of late delivery); otherwise it is closed.
  const auto evict = [&](Session& session, const std::string& reason,
                         bool suspend) {
    SOS_LOG_WARN() << "RemoteWorkerPool: evicting worker pid " << session.pid
                   << ": " << reason;
    const auto now = Clock::now();
    std::vector<int> unfinished;
    for (const int index : session.outstanding)
      if (!done[static_cast<std::size_t>(index)] &&
          !quarantined[static_cast<std::size_t>(index)])
        unfinished.push_back(index);
    session.outstanding.clear();
    if (!unfinished.empty()) {
      const int culprit = unfinished.front();
      const auto verdict = ledger.charge(culprit, now);
      persist_journal();
      if (verdict == AttemptLedger::Verdict::kQuarantine) {
        PointFailure failure;
        failure.index = culprit;
        failure.key = runner_.points()[static_cast<std::size_t>(culprit)].key;
        failure.attempts = ledger.failures(culprit);
        failure.reason = reason;
        store.quarantine(runner_.digest(culprit), failure);
        quarantined[static_cast<std::size_t>(culprit)] = 1;
        ++quarantine_count;
      } else {
        requeue_front({culprit});
      }
      requeue_front(
          std::vector<int>(unfinished.begin() + 1, unfinished.end()));
    }
    if (suspend) {
      session.state = SessionState::kSuspended;
    } else {
      session.sock.close();
      session.dead = true;
    }
  };

  // SIGKILLs the local child behind a silence- or deadline-evicted session
  // (a SIGSTOP hang or a livelock never recovers on its own); the
  // reap/respawn pass replaces it.
  const auto kill_local_child = [&](std::uint64_t pid) {
    for (auto& child : children)
      if (static_cast<std::uint64_t>(child.pid()) == pid) {
        child.kill();
        return;
      }
  };

  // The eviction reason for a session whose peer went away (EOF or a
  // failed write) while holding work. A local child that exited says how
  // ("exit 41", "signal 9 (SIGKILL)"); a running one gets a bounded moment
  // to become reapable. An external worker, a chaos connection drop or a
  // child still running reads as a lost connection.
  const auto eof_reason = [&](const Session& session) -> std::string {
    const std::string lost = "connection lost";
    if (session.outstanding.empty()) return lost;  // nothing gets charged
    if (const auto it = reaped_exits.find(session.pid);
        it != reaped_exits.end())
      return it->second;
    for (auto& child : children) {
      if (static_cast<std::uint64_t>(child.pid()) != session.pid) continue;
      const auto give_up = Clock::now() + std::chrono::milliseconds(100);
      for (;;) {
        if (const auto exit = child.poll_exit()) return exit->describe();
        if (Clock::now() >= give_up) return lost;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return lost;
  };

  // One result frame. Any valid pending index is accepted — including a
  // late frame from a suspended session for a point already requeued or
  // even quarantined (the object supersedes the quarantine record).
  // Duplicates deduplicate against done[] / the content-addressed store.
  // Returns false only on protocol corruption.
  const auto on_result = [&](Session& session, const std::string& frame) {
    const auto result = parse_result(frame);
    if (!result || result->index < 0 || result->index >= total) return false;
    session.deadline = Clock::now() + deadline_budget;
    const auto slot = static_cast<std::size_t>(result->index);
    const auto it = std::find(session.outstanding.begin(),
                              session.outstanding.end(), result->index);
    if (it != session.outstanding.end()) session.outstanding.erase(it);
    if (done[slot]) return true;  // duplicate delivery: already durable
    // Coordinator-side chaos shares the worker's draw chain (same
    // (seed, point, attempt) stream), keyed on the point's current charge
    // count; each side acts only on its own fault family.
    const ChaosAction coordinator_fault = chaos_action(
        options_.chaos, result->index, ledger.failures(result->index));
    if (coordinator_fault == ChaosAction::kCoordinatorKill) {
      // The survivability drill: charge the point (so the resumed
      // coordinator's draw advances past this fire), persist the journal,
      // die without storing the result. `--resume` must recover.
      (void)ledger.charge(result->index, Clock::now());
      persist_journal();
      ::raise(SIGKILL);
    }
    store.put(runner_.digest(result->index), result->bytes);
    if (coordinator_fault == ChaosAction::kObjectBitflip)
      flip_object_bit(store.object_path(runner_.digest(result->index)),
                      runner_.digest(result->index));
    if (quarantined[slot]) {
      quarantined[slot] = 0;  // store.put cleared the stale record
      --quarantine_count;
    }
    done[slot] = 1;
    ++done_count;
    ++computed;
    queue.erase(std::remove(queue.begin(), queue.end(), result->index),
                queue.end());
    if (options_.checkpoint_hook) options_.checkpoint_hook(computed);
    return true;
  };

  // Typed eviction reason for a protocol violation, set by on_frame when it
  // knows better than the generic one.
  std::string violation;

  const auto on_frame = [&](Session& session, const std::string& raw) {
    session.last_heard = Clock::now();
    if (session.state == SessionState::kRegistering) {
      // First frame must be a HELLO: a sealed v2 one under the base key, or
      // a legacy v1 one (13 unsealed bytes) that earns a readable REJECT.
      const auto inspection = inspect_hello(raw, base_key);
      switch (inspection.verdict) {
        case HelloVerdict::kOk:
          break;
        case HelloVerdict::kVersionMismatch: {
          const std::string reject = encode_reject(
              reject_version_mismatch(inspection.spoken_version));
          // A v1 peer cannot open a sealed frame; its REJECT goes out raw.
          (void)common::write_frame(session.sock.fd(),
                                    inspection.legacy_unsealed
                                        ? reject
                                        : seal_frame(reject, base_key));
          session.sock.close();
          session.dead = true;
          return true;
        }
        case HelloVerdict::kBadMac: {
          // Wrong pre-shared key. The peer cannot verify this REJECT (no
          // shared key to verify under) but surfaces the reason via its
          // unverified peek before exiting.
          (void)common::write_frame(
              session.sock.fd(),
              seal_frame(encode_reject(kRejectBadHelloMac), base_key));
          session.sock.close();
          session.dead = true;
          return true;
        }
        case HelloVerdict::kMalformed:
          violation = "malformed registration frame";
          return false;
      }
      session.pid = inspection.hello.pid;
      session.session_key =
          common::derive_session_key(base_key, inspection.hello.challenge);
      session.state = SessionState::kLive;
      if (!common::write_frame(
              session.sock.fd(),
              seal_frame(welcome_inner, session.session_key))) {
        session.sock.close();
        session.dead = true;
      }
      return true;
    }
    const auto frame = open_frame(raw, session.session_key);
    if (!frame) {
      violation = std::string(kBadFrameMacReason);
      return false;
    }
    if (session.state == SessionState::kSuspended)
      session.state = SessionState::kLive;  // it speaks (verified): revived
    const auto type = message_type(*frame);
    if (!type) return false;
    switch (*type) {
      case MessageType::kResult:
        return on_result(session, *frame);
      case MessageType::kHeartbeat:
        return true;  // last_heard already refreshed
      case MessageType::kHello:
      case MessageType::kWelcome:
      case MessageType::kReject:
      case MessageType::kAssign:
      case MessageType::kShutdown:
        return false;  // not worker-to-coordinator traffic mid-session
    }
    return false;
  };

  // Hands the next eligible pending points to an idle live session.
  const auto assign_work = [&](Session& session) {
    const auto now = Clock::now();
    std::vector<Assignment> shard;
    std::deque<int> waiting;
    while (!queue.empty() &&
           shard.size() <
               static_cast<std::size_t>(options_.points_per_assign)) {
      const int index = queue.front();
      queue.pop_front();
      if (ledger.eligible(index, now)) {
        shard.push_back(Assignment{index, ledger.failures(index)});
      } else {
        waiting.push_back(index);
      }
    }
    for (auto it = waiting.rbegin(); it != waiting.rend(); ++it)
      queue.push_front(*it);
    if (shard.empty()) return;
    if (!common::write_frame(
            session.sock.fd(),
            seal_frame(encode_assign(shard), session.session_key))) {
      // Peer vanished between frames: nothing was computed, nothing is
      // charged — the shard simply goes back.
      std::vector<int> indices;
      for (const Assignment& assignment : shard)
        indices.push_back(assignment.index);
      requeue_front(indices);
      session.sock.close();
      session.dead = true;
      return;
    }
    for (const Assignment& assignment : shard)
      session.outstanding.push_back(assignment.index);
    session.deadline = Clock::now() + deadline_budget;
  };

  // A store that is already settled needs no fleet at all: spawning
  // workers just to shut them down would put a 2s grace period on every
  // warm rerun.
  if (!settled())
    for (int i = 0; i < options_.local_workers; ++i) spawn_child();

  auto next_beat = Clock::now() + beat_every;
  auto fleet_deadline = Clock::now() + registration_budget;

  while (!settled()) {
    // --- Reap exited local children; respawn while work remains. ---
    for (auto it = children.begin(); it != children.end();) {
      if (const auto exit = it->poll_exit()) {
        reaped_exits[static_cast<std::uint64_t>(it->pid())] = exit->describe();
        it = children.erase(it);
      } else {
        ++it;
      }
    }
    while (static_cast<int>(children.size()) < options_.local_workers &&
           respawns < max_respawns) {
      spawn_child();
      ++respawns;
    }

    // --- Fleet liveness. ---
    const auto now = Clock::now();
    bool any_live = false;
    for (const auto& session : sessions)
      any_live |= !session.dead && session.state == SessionState::kLive;
    if (any_live) {
      fleet_deadline = now + registration_budget;
    } else if (now >= fleet_deadline) {
      for (auto& session : sessions) session.sock.close();
      for (auto& child : children) {
        child.kill();
        child.wait_exit();
      }
      throw FleetUnreachableError(
          "no registered worker for " +
          common::format_double(options_.registration_timeout_s, 2) +
          "s with " + std::to_string(total - done_count - quarantine_count) +
          " points pending");
    }

    // --- Symmetric heartbeats (suspended peers excluded: they are not
    // reading, and the late-delivery path needs no prompting). ---
    if (now >= next_beat) {
      for (auto& session : sessions)
        if (!session.dead && session.state == SessionState::kLive)
          if (!common::write_frame(
                  session.sock.fd(),
                  seal_frame(heartbeat_inner, session.session_key)))
            evict(session, eof_reason(session), /*suspend=*/false);
      next_beat = now + beat_every;
    }

    // --- Work-stealing assignment to idle live sessions. ---
    for (auto& session : sessions)
      if (!session.dead && session.state == SessionState::kLive &&
          session.outstanding.empty() && !queue.empty())
        assign_work(session);

    // --- Poll the listener and every open session. ---
    std::vector<::pollfd> fds;
    fds.reserve(sessions.size() + 1);
    fds.push_back({listener_.fd(), POLLIN, 0});
    std::vector<std::size_t> fd_session;
    for (std::size_t s = 0; s < sessions.size(); ++s) {
      if (sessions[s].dead) continue;
      fds.push_back({sessions[s].sock.fd(), POLLIN, 0});
      fd_session.push_back(s);
    }

    auto wake_at = next_beat;
    for (const auto& session : sessions) {
      if (session.dead || session.state == SessionState::kSuspended) continue;
      wake_at = std::min(wake_at, session.last_heard + heartbeat_budget);
      if (!session.outstanding.empty())
        wake_at = std::min(wake_at, session.deadline);
    }
    for (const int index : queue)
      wake_at = std::min(wake_at, ledger.eligible_at(index));
    const auto poll_now = Clock::now();
    int timeout_ms = 1;
    if (wake_at > poll_now)
      timeout_ms = static_cast<int>(std::clamp<long long>(
          std::chrono::duration_cast<std::chrono::milliseconds>(wake_at -
                                                                poll_now)
                  .count() +
              1,
          1, 200));
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);

    // --- Accept new connections. ---
    if (fds[0].revents & POLLIN) {
      while (auto sock = listener_.accept()) {
        Session session;
        session.sock = std::move(*sock);
        session.last_heard = Clock::now();
        sessions.push_back(std::move(session));
      }
    }

    // --- Drain readable sessions. ---
    for (std::size_t f = 1; f < fds.size(); ++f) {
      Session& session = sessions[fd_session[f - 1]];
      if (session.dead) continue;
      if (!(fds[f].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      bool closed = false;
      char buffer[65536];
      for (;;) {
        const long n = session.sock.read_some(buffer, sizeof(buffer));
        if (n > 0) {
          session.frames.feed(buffer, static_cast<std::size_t>(n));
          continue;
        }
        if (n == -1) break;  // drained
        closed = true;       // orderly EOF or connection reset
        break;
      }
      bool protocol_ok = true;
      violation.clear();
      while (auto frame = session.frames.next_frame()) {
        if (!on_frame(session, *frame)) {
          protocol_ok = false;
          break;
        }
        if (session.dead) break;  // rejected / write failure mid-dispatch
      }
      if (session.dead) continue;
      if (!protocol_ok || session.frames.corrupt()) {
        evict(session,
              violation.empty() ? "corrupt result frame stream" : violation,
              /*suspend=*/false);
      } else if (closed) {
        // EOF with work outstanding charges the in-flight point (worker
        // death or a chaos connection drop); a clean goodbye charges
        // nothing. The worker may reconnect as a fresh session.
        if (session.frames.mid_frame())
          evict(session, "truncated result frame", /*suspend=*/false);
        else
          evict(session, eof_reason(session), /*suspend=*/false);
      }
    }

    // --- Point deadline: a session that holds work but has delivered no
    // RESULT for point_deadline_s is evicted outright, heartbeats or not
    // (its compute is hung or livelocked), and its local child SIGKILLed.
    // Heartbeat silence: suspend, charge, reassign; SIGKILL the local
    // child behind it (an intentional SIGSTOP hang never comes back). ---
    const auto silence_now = Clock::now();
    for (auto& session : sessions) {
      if (session.dead || session.state == SessionState::kSuspended) continue;
      if (!session.outstanding.empty() && silence_now >= session.deadline) {
        const std::uint64_t pid = session.pid;
        evict(session,
              "deadline " +
                  common::format_double(options_.point_deadline_s, 2) +
                  "s exceeded",
              /*suspend=*/false);
        kill_local_child(pid);
        continue;
      }
      if (silence_now - session.last_heard < heartbeat_budget) continue;
      if (session.state == SessionState::kRegistering) {
        session.sock.close();  // never said HELLO: nothing to charge
        session.dead = true;
        continue;
      }
      const std::uint64_t pid = session.pid;
      evict(session,
            "heartbeat silence beyond " +
                common::format_double(options_.heartbeat_timeout_s, 2) + "s",
            /*suspend=*/true);
      kill_local_child(pid);
    }

    sessions.erase(std::remove_if(sessions.begin(), sessions.end(),
                                  [](const Session& session) {
                                    return session.dead;
                                  }),
                   sessions.end());
  }

  // --- Settled: orderly shutdown. Every connected worker — live,
  // suspended mid-partition, even one reconnecting right now — gets a
  // SHUTDOWN frame followed by a half-close, and its socket is drained to
  // EOF before closing: a hard close with late frames still unread in our
  // receive buffer would turn into a TCP reset that destroys the buffered
  // SHUTDOWN on the worker's side, stranding it. Bounded by the grace
  // deadline so a wedged worker cannot wedge the coordinator.
  {
    // Settled: the journal has served its purpose; a later fresh run must
    // not inherit these charges.
    std::error_code ignored;
    std::filesystem::remove(journal_path, ignored);
  }
  const std::string shutdown_inner = encode_shutdown();
  const auto say_goodbye = [&](common::Socket& sock,
                               const common::MacKey& key) {
    if (!sock.valid()) return;
    (void)common::write_frame(sock.fd(), seal_frame(shutdown_inner, key));
    ::shutdown(sock.fd(), SHUT_WR);
  };
  std::vector<common::Socket> draining;
  for (auto& session : sessions) {
    if (session.dead || !session.sock.valid()) continue;
    // A peer whose HELLO we never processed has no session key yet; its
    // goodbye rides the base key like a late reconnect's.
    say_goodbye(session.sock, session.state == SessionState::kRegistering
                                  ? base_key
                                  : session.session_key);
    draining.push_back(std::move(session.sock));
  }
  // Local children get the same grace: one respawned just before the
  // campaign settled may not have connected yet, and is waited for (and
  // greeted with a goodbye when it does connect) rather than left to the
  // SIGKILL at the deadline.
  const auto children_running = [&]() {
    return std::any_of(children.begin(), children.end(),
                       [](common::Subprocess& child) {
                         return !child.poll_exit();
                       });
  };
  const auto grace_deadline = Clock::now() + std::chrono::seconds(2);
  while ((!draining.empty() || children_running()) &&
         Clock::now() < grace_deadline) {
    // A worker that noticed its old connection die may be reconnecting at
    // this very moment; its fresh socket deserves the goodbye too. No
    // handshake has happened on it, so the goodbye is sealed under the
    // base key; the worker accepts base-sealed SHUTDOWN/REJECT only.
    while (auto late = listener_.accept()) {
      say_goodbye(*late, base_key);
      draining.push_back(std::move(*late));
    }
    std::vector<::pollfd> waiters;
    waiters.reserve(draining.size() + 1);
    waiters.push_back(::pollfd{listener_.fd(), POLLIN, 0});
    for (const auto& sock : draining)
      waiters.push_back(::pollfd{sock.fd(), POLLIN, 0});
    // Sockets wake the poll at EOF; a child's exit does not, so with only
    // exits left to wait for the poll is a short sleep.
    (void)::poll(waiters.data(), waiters.size(),
                 /*timeout_ms=*/draining.empty() ? 1 : 50);
    char sink[4096];
    for (std::size_t i = 0; i < draining.size(); ++i) {
      if (!(waiters[i + 1].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      long n;
      while ((n = draining[i].read_some(sink, sizeof(sink))) > 0) {
      }
      if (n == 0 || n == -2) draining[i].close();  // EOF: goodbye received
    }
    draining.erase(std::remove_if(draining.begin(), draining.end(),
                                  [](const common::Socket& sock) {
                                    return !sock.valid();
                                  }),
                   draining.end());
  }
  draining.clear();
  children.clear();  // ~Subprocess SIGKILLs and reaps any straggler

  CampaignReport report = runner_.status();
  report.cached = cached;
  report.computed = computed;
  report.retried = ledger.retried();
  return report;
}

// --- The serve worker body. -----------------------------------------------

namespace {

/// Socket shared between the compute loop and the heartbeat thread. All
/// writes (and the fd swap on reconnect) hold the mutex; the single reader
/// needs no lock.
struct WorkerLink {
  std::mutex write_mutex;
  common::Socket sock;
  std::atomic<long long> blackhole_until_ns{0};  // partition chaos gate
};

std::string scratch_store_dir() {
  static std::atomic<int> counter{0};
  const auto dir = std::filesystem::temp_directory_path() /
                   ("sos-serve-" + std::to_string(::getpid()) + "-" +
                    std::to_string(counter.fetch_add(1)));
  return dir.string();
}

long long steady_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

}  // namespace

int run_remote_worker(const RemoteWorkerConfig& config) {
  common::ignore_sigpipe();

  common::MacKey base_key;
  try {
    base_key = load_base_key(config.key_file);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sos_campaign serve: %s\n", error.what());
    return 1;
  }

  WorkerLink link;
  // The session key changes on every (re)connect — fresh challenge, fresh
  // key — and is read by both the compute loop and the beater thread, so
  // all access rides the write mutex the socket swap already takes.
  common::MacKey session_key;
  common::Rng challenge_rng{
      common::mix64(static_cast<std::uint64_t>(::getpid())) ^
      static_cast<std::uint64_t>(steady_ns(Clock::now()))};

  // Connects AND registers: the HELLO goes out under the same mutex hold
  // that installs the socket, so the beater thread can never slip a
  // session-sealed heartbeat in front of the handshake.
  const auto connect_once = [&]() -> bool {
    const auto deadline = Clock::now() + to_duration(config.connect_timeout_s);
    for (;;) {
      if (auto sock =
              common::Socket::connect_ipv4(config.host, config.port)) {
        std::lock_guard<std::mutex> lock(link.write_mutex);
        link.sock = std::move(*sock);
        Hello hello;
        hello.pid = static_cast<std::uint64_t>(::getpid());
        hello.challenge = challenge_rng.next();
        session_key = common::derive_session_key(base_key, hello.challenge);
        if (common::write_frame(link.sock.fd(),
                                seal_frame(encode_hello(hello), base_key)))
          return true;
        link.sock.close();  // peer vanished instantly; retry until deadline
      }
      if (Clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  };

  const auto send = [&](const std::string& inner) {
    std::lock_guard<std::mutex> lock(link.write_mutex);
    return link.sock.valid() &&
           common::write_frame(link.sock.fd(),
                               seal_frame(inner, session_key));
  };

  const auto drop_connection = [&]() {
    std::lock_guard<std::mutex> lock(link.write_mutex);
    link.sock.close();
  };

  if (!connect_once()) return kExitFleetUnreachable;

  int reconnects = 0;
  const auto reconnect = [&]() {
    drop_connection();
    if (++reconnects > config.max_reconnects) return false;
    return connect_once();
  };

  // Heartbeats ride a dedicated thread so a long point computation (or a
  // partition sleep) cannot read as death — unless chaos wants it to. The
  // thread waits on a condition variable rather than sleeping, so shutdown
  // wakes it at once instead of after up to one heartbeat interval.
  std::mutex stop_mutex;
  std::condition_variable stop_wake;
  bool stop = false;
  std::thread beater([&]() {
    const auto beat_every = to_duration(config.heartbeat_interval_s);
    const std::string beat = encode_heartbeat();
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(stop_mutex);
        if (stop_wake.wait_for(lock, beat_every, [&]() { return stop; }))
          return;
      }
      if (steady_ns(Clock::now()) < link.blackhole_until_ns.load()) continue;
      std::lock_guard<std::mutex> lock(link.write_mutex);
      if (link.sock.valid())  // EOF comes later; session_key guarded by lock
        (void)common::write_frame(link.sock.fd(),
                                  seal_frame(beat, session_key));
    }
  });

  std::optional<CampaignRunner> runner;

  int exit_code = -1;  // < 0: keep serving
  bool need_reconnect = false;

  const auto compute_and_send = [&](int index) {
    const std::string bytes = runner->compute_point_bytes(index);
    if (!send(encode_result(index, bytes))) need_reconnect = true;
    return bytes;
  };

  const auto on_assign = [&](const std::string& frame) {
    const auto assignments = parse_assign(frame);
    if (!assignments || !runner) {
      exit_code = 1;
      return;
    }
    const int total = static_cast<int>(runner->points().size());
    for (const Assignment& assignment : *assignments) {
      if (assignment.index < 0 || assignment.index >= total) {
        exit_code = 1;
        return;
      }
      switch (
          chaos_action(config.chaos, assignment.index, assignment.attempt)) {
        case ChaosAction::kSigkill:
          ::raise(SIGKILL);
          break;
        case ChaosAction::kHang:
          ::raise(SIGSTOP);  // silent: the coordinator's timeout saves us
          break;
        case ChaosAction::kBadExit:
          exit_code = kChaosBadExitCode;
          return;
        case ChaosAction::kTruncate: {
          // The lying worker: half a (sealed) result frame, then a "clean"
          // exit. Tearing happens above the MAC layer, so the coordinator
          // sees exactly a worker dying mid-result.
          const std::string payload =
              encode_result(assignment.index, "chaos-torn-frame");
          std::lock_guard<std::mutex> lock(link.write_mutex);
          if (link.sock.valid())
            write_torn_frame(link.sock.fd(),
                             seal_frame(payload, session_key));
          exit_code = 0;
          return;
        }
        case ChaosAction::kNetDrop:
          // Abrupt connection loss mid-shard; the coordinator charges the
          // in-flight point and this worker re-registers fresh.
          need_reconnect = true;
          drop_connection();
          return;
        case ChaosAction::kNetPartition: {
          // Heartbeat blackhole: go silent long enough to be evicted,
          // then deliver the result late (dedup is the store's problem).
          const auto until =
              Clock::now() + to_duration(config.chaos.net_partition_s);
          link.blackhole_until_ns.store(steady_ns(until));
          std::this_thread::sleep_until(until);
          compute_and_send(assignment.index);
          if (need_reconnect) return;
          continue;
        }
        case ChaosAction::kNetTorn: {
          // A frame cut mid-payload by the connection dropping.
          const std::string payload = runner->compute_point_bytes(
              assignment.index);
          {
            std::lock_guard<std::mutex> lock(link.write_mutex);
            if (link.sock.valid())
              write_torn_frame(
                  link.sock.fd(),
                  seal_frame(encode_result(assignment.index, payload),
                             session_key));
          }
          need_reconnect = true;
          drop_connection();
          return;
        }
        case ChaosAction::kNetDuplicate: {
          const std::string bytes = compute_and_send(assignment.index);
          if (!need_reconnect)
            (void)send(encode_result(assignment.index, bytes));
          if (need_reconnect) return;
          continue;
        }
        case ChaosAction::kCoordinatorKill:
        case ChaosAction::kObjectBitflip:
          // Coordinator-family faults: the worker's half of the shared
          // draw is to behave normally — the coordinator acts on arrival.
        case ChaosAction::kNone:
          compute_and_send(assignment.index);
          if (need_reconnect) return;
          continue;
      }
    }
  };

  const auto on_frame = [&](const std::string& frame) {
    const auto type = message_type(frame);
    if (!type) {
      exit_code = 1;
      return;
    }
    switch (*type) {
      case MessageType::kWelcome: {
        if (runner) return;  // re-registration: the spec does not change
        const auto text = parse_welcome(frame);
        if (!text) {
          exit_code = 1;
          return;
        }
        // compute_point_bytes never touches the store, so the directory
        // the runner creates goes right away: a worker SIGKILLed later
        // (chaos, deadline, silence eviction) leaves nothing behind.
        const std::string scratch = scratch_store_dir();
        try {
          runner.emplace(ScenarioSpec::parse(*text),
                         CampaignOptions{scratch, nullptr, 1, nullptr});
        } catch (const std::exception& error) {
          std::fprintf(stderr, "sos_campaign serve: bad spec from coordinator: %s\n",
                       error.what());
          exit_code = 1;
        }
        std::error_code ignored;
        std::filesystem::remove_all(scratch, ignored);
        return;
      }
      case MessageType::kReject: {
        const auto reason = parse_reject(frame);
        std::fprintf(stderr, "sos_campaign serve: rejected: %s\n",
                     reason ? reason->c_str() : "(malformed reject)");
        exit_code = 1;
        return;
      }
      case MessageType::kAssign:
        on_assign(frame);
        return;
      case MessageType::kHeartbeat:
        return;  // coordinator liveness; EOF is how we learn it died
      case MessageType::kShutdown:
        exit_code = 0;
        return;
      case MessageType::kHello:
      case MessageType::kResult:
        exit_code = 1;  // worker-to-coordinator messages from a coordinator
        return;
    }
  };

  // A healthy coordinator is never silent: it heartbeats every interval
  // and answers registration promptly. Total silence past this budget
  // means the link (or the coordinator) is dead in a way EOF never
  // reported — e.g. a reconnect that landed in a listen backlog nobody
  // accepts — so the worker drops the connection and spends a reconnect
  // instead of blocking on read(2) forever.
  const auto silence_budget = to_duration(
      std::max(config.connect_timeout_s, 20.0 * config.heartbeat_interval_s));
  auto last_heard = Clock::now();

  common::FrameBuffer frames;
  char buffer[65536];
  while (exit_code < 0) {
    if (need_reconnect) {
      if (!reconnect()) {
        exit_code = kExitFleetUnreachable;
        break;
      }
      need_reconnect = false;
      frames = common::FrameBuffer{};  // fresh stream, fresh decoder
      last_heard = Clock::now();
    }
    ::pollfd waiter{link.sock.fd(), POLLIN, 0};
    const int ready = ::poll(&waiter, 1, /*timeout_ms=*/100);
    if (ready <= 0) {
      if (Clock::now() - last_heard > silence_budget) need_reconnect = true;
      continue;
    }
    const long n = link.sock.read_some(buffer, sizeof(buffer));
    if (n == -1) continue;  // EINTR on the blocking worker socket
    if (n <= 0) {
      need_reconnect = true;  // EOF or reset: coordinator gone or evicted us
      continue;
    }
    last_heard = Clock::now();
    frames.feed(buffer, static_cast<std::size_t>(n));
    while (auto raw = frames.next_frame()) {
      // session_key is only rewritten by this same loop (via reconnect), so
      // reading it here without the write mutex is safe.
      if (auto frame = open_frame(*raw, session_key)) {
        on_frame(*frame);
      } else if (auto control = open_frame(*raw, base_key);
                 control && (message_type(*control) == MessageType::kReject ||
                             message_type(*control) ==
                                 MessageType::kShutdown)) {
        // Base-sealed control traffic: a REJECT before any session key is
        // agreed, or the SHUTDOWN a settling coordinator sends to a
        // reconnect it never handshook with.
        on_frame(*control);
      } else {
        const std::string peeked{peek_frame_unverified(*raw)};
        if (message_type(peeked) == MessageType::kReject) {
          // Sealed under a key this worker does not share (pre-shared key
          // mismatch): the reason cannot be verified, but it is the only
          // diagnostic the operator will ever get — print it and give up,
          // since registration can never succeed.
          const auto reason = parse_reject(peeked);
          std::fprintf(stderr,
                       "sos_campaign serve: rejected (unverified): %s\n",
                       reason ? reason->c_str() : "(malformed reject)");
          exit_code = 1;
        } else {
          need_reconnect = true;  // unauthenticated bytes: not our peer
        }
      }
      if (exit_code >= 0 || need_reconnect) break;
    }
    if (exit_code < 0 && frames.corrupt()) need_reconnect = true;
  }

  {
    std::lock_guard<std::mutex> lock(stop_mutex);
    stop = true;
  }
  stop_wake.notify_one();
  beater.join();
  drop_connection();
  return exit_code;
}

}  // namespace sos::campaign
