#include "serve/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>

#include "common/failpoint.h"
#include "common/telemetry/telemetry.h"
#include "serve/protocol.h"

namespace guardrail {
namespace serve {

namespace {

// Poll granularity for every blocking loop: how quickly stop / drain flags
// are noticed, not a performance knob.
constexpr int kPollMillis = 100;

enum class IoResult {
  kOk,
  kClosed,  // Peer EOF, or drain requested before any byte arrived.
  kError,
};

/// Reads exactly `n` bytes. If `abort_on_drain` is set and the drain flag
/// flips before the first byte arrives, gives up cleanly (kClosed) — that is
/// how idle connections notice shutdown without cutting off a frame that has
/// already started.
IoResult ReadFull(int fd, uint8_t* buf, size_t n,
                  const std::atomic<bool>& draining, bool abort_on_drain) {
  size_t got = 0;
  while (got < n) {
    if (abort_on_drain && got == 0 &&
        draining.load(std::memory_order_acquire)) {
      return IoResult::kClosed;
    }
    struct pollfd pfd = {fd, POLLIN, 0};
    int rc = poll(&pfd, 1, kPollMillis);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return IoResult::kError;
    }
    if (rc == 0) continue;  // Timeout: re-check flags.
    ssize_t r = recv(fd, buf + got, n - got, 0);
    if (r == 0) return IoResult::kClosed;
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return IoResult::kError;
    }
    got += static_cast<size_t>(r);
  }
  return IoResult::kOk;
}

IoResult WriteFull(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    struct pollfd pfd = {fd, POLLOUT, 0};
    int rc = poll(&pfd, 1, kPollMillis);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return IoResult::kError;
    }
    if (rc == 0) continue;
    ssize_t r = send(fd, bytes.data() + sent, bytes.size() - sent,
                     MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return IoResult::kError;
    }
    sent += static_cast<size_t>(r);
  }
  return IoResult::kOk;
}

std::string ErrorFrame(StatusCode code, std::string error) {
  ValidateResponse response;
  response.code = code;
  response.error = std::move(error);
  return EncodeValidateResponse(response);
}

}  // namespace

Server::Server(ProgramRegistry* registry, ValidationEngine* engine,
               ServerOptions options)
    : registry_(registry), engine_(engine), options_(std::move(options)) {}

Server::~Server() { Drain(); }

Status Server::Start() {
  if (started_.exchange(true)) {
    return Status::InvalidArgument("server already started");
  }

  // Load whatever is in the watched directory before opening the port, so
  // "listening" implies the initial programs are live.
  if (!options_.watch_dir.empty()) {
    auto loaded = registry_->PollDirectory(options_.watch_dir);
    if (!loaded.ok()) return loaded.status();
  }

  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
           sizeof(addr)) < 0) {
    Status st = Status::IoError(std::string("bind: ") + std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (listen(listen_fd_, 128) < 0) {
    Status st =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }

  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }

  acceptor_ = std::thread([this] { AcceptLoop(); });
  if (!options_.watch_dir.empty()) {
    watcher_ = std::thread([this] { WatchLoop(); });
  }
  GUARDRAIL_LOG(INFO) << "serve listening"
                      << telemetry::Kv("host", options_.host)
                      << telemetry::Kv("port", static_cast<int64_t>(port_));
  return Status::OK();
}

void Server::AcceptLoop() {
  while (!draining_.load(std::memory_order_acquire)) {
    struct pollfd pfd = {listen_fd_, POLLIN, 0};
    int rc = poll(&pfd, 1, kPollMillis);
    if (rc <= 0) continue;
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (draining_.load(std::memory_order_acquire) ||
        active_connections_.load(std::memory_order_acquire) >=
            options_.max_connections) {
      GUARDRAIL_COUNTER_INC("serve.connections_rejected");
      close(fd);
      continue;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    GUARDRAIL_COUNTER_INC("serve.connections_accepted");
    active_connections_.fetch_add(1, std::memory_order_acq_rel);
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_threads_.emplace_back([this, fd] { ConnectionLoop(fd); });
  }
}

void Server::ConnectionLoop(int fd) {
  while (true) {
    uint8_t prefix[kFramePrefixBytes];
    // Abort between frames on drain; a frame whose prefix landed is
    // in-flight and runs to completion below.
    IoResult r = ReadFull(fd, prefix, sizeof(prefix), draining_,
                          /*abort_on_drain=*/true);
    if (r != IoResult::kOk) break;

    uint64_t payload_size = DecodeFramePrefix(prefix);
    Status size_ok = CheckFrameSize(payload_size);
    if (!size_ok.ok()) {
      // An oversized or zero prefix means we can no longer find frame
      // boundaries on this stream: answer, then hang up.
      GUARDRAIL_COUNTER_INC("serve.bad_frames");
      WriteFull(fd, ErrorFrame(StatusCode::kInvalidArgument,
                               size_ok.message()));
      break;
    }

    // Every byte is about to be received over, so the buffer is not
    // zero-filled first.
    std::unique_ptr<char[]> payload =
        std::make_unique_for_overwrite<char[]>(payload_size);
    r = ReadFull(fd, reinterpret_cast<uint8_t*>(payload.get()), payload_size,
                 draining_, /*abort_on_drain=*/false);
    if (r != IoResult::kOk) break;

    GUARDRAIL_COUNTER_INC("serve.frames");
    // Chaos hook: a tripped failpoint hangs up after the request was read
    // but before any response — the client sees a dead node mid-request and
    // must retry (with the same request id) against the fleet.
    if (!FailpointTrip("serve.connection_drop").ok()) {
      GUARDRAIL_COUNTER_INC("serve.chaos_drops");
      break;
    }
    std::string response = HandlePayload(
        std::string_view(payload.get(), static_cast<size_t>(payload_size)));
    if (WriteFull(fd, response) != IoResult::kOk) break;

    if (draining_.load(std::memory_order_acquire)) break;
  }
  close(fd);
  active_connections_.fetch_sub(1, std::memory_order_acq_rel);
}

std::string Server::HandlePayload(std::string_view payload) {
  MsgType type;
  Status st = PeekMsgType(payload, &type);
  if (!st.ok()) {
    GUARDRAIL_COUNTER_INC("serve.bad_frames");
    return ErrorFrame(StatusCode::kInvalidArgument, st.message());
  }
  switch (type) {
    case MsgType::kPingRequest: {
      st = DecodePingRequest(payload);
      if (!st.ok()) {
        GUARDRAIL_COUNTER_INC("serve.bad_frames");
        return ErrorFrame(StatusCode::kInvalidArgument, st.message());
      }
      PingResponse pong;
      pong.draining = draining_.load(std::memory_order_acquire);
      for (const auto& snapshot : registry_->List()) {
        DatasetInfo info;
        info.dataset = snapshot->dataset;
        info.version = snapshot->version;
        info.source_hash = snapshot->source_hash;
        info.statements = static_cast<uint32_t>(snapshot->statement_count());
        pong.datasets.push_back(std::move(info));
      }
      return EncodePingResponse(pong);
    }
    case MsgType::kHealthRequest: {
      st = DecodeHealthRequest(payload);
      if (!st.ok()) {
        GUARDRAIL_COUNTER_INC("serve.bad_frames");
        return ErrorFrame(StatusCode::kInvalidArgument, st.message());
      }
      registry_->GcSuperseded();  // Report only still-pinned snapshots.
      HealthResponse health;
      health.draining = draining_.load(std::memory_order_acquire);
      int inflight = engine_->admission().inflight();
      health.inflight = inflight < 0 ? 0 : static_cast<uint32_t>(inflight);
      health.max_inflight =
          static_cast<uint32_t>(engine_->admission().limit());
      health.registry_versions =
          static_cast<uint64_t>(registry_->versions_published());
      health.live_datasets =
          static_cast<uint32_t>(registry_->live_datasets());
      health.superseded_snapshots =
          static_cast<uint32_t>(registry_->superseded_live());
      return EncodeHealthResponse(health);
    }
    case MsgType::kValidateRequest: {
      // The engine decodes the rows where they lie in the frame.
      ValidateRequest request;
      std::string_view rows;
      st = DecodeValidateRequest(payload, &request, &rows);
      if (!st.ok()) {
        GUARDRAIL_COUNTER_INC("serve.bad_frames");
        return ErrorFrame(StatusCode::kInvalidArgument, st.message());
      }
      return EncodeValidateResponse(engine_->Handle(request, rows));
    }
    case MsgType::kIngestRequest: {
      IngestRequest request;
      st = DecodeIngestRequest(payload, &request);
      if (!st.ok()) {
        GUARDRAIL_COUNTER_INC("serve.bad_frames");
        return ErrorFrame(StatusCode::kInvalidArgument, st.message());
      }
      IngestResponse response;
      if (!options_.ingest_handler) {
        response.code = StatusCode::kNotImplemented;
        response.error = "this server does not accept ingest (run with --ingest)";
      } else {
        response = options_.ingest_handler(request);
      }
      return EncodeIngestResponse(response);
    }
    default:
      GUARDRAIL_COUNTER_INC("serve.bad_frames");
      return ErrorFrame(StatusCode::kInvalidArgument,
                        "unexpected message type from client");
  }
}

void Server::WatchLoop() {
  using Clock = std::chrono::steady_clock;
  auto next = Clock::now() + std::chrono::milliseconds(
                                 options_.reload_interval_ms);
  while (!draining_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(
        kPollMillis < options_.reload_interval_ms ? kPollMillis
                                                  : options_.reload_interval_ms));
    if (Clock::now() < next) continue;
    next = Clock::now() +
           std::chrono::milliseconds(options_.reload_interval_ms);
    auto loaded = registry_->PollDirectory(options_.watch_dir);
    if (!loaded.ok()) {
      GUARDRAIL_LOG(WARN) << "program reload poll failed"
                          << telemetry::Kv("error",
                                           loaded.status().ToString());
    }
  }
}

void Server::Drain() {
  if (!started_.load(std::memory_order_acquire)) return;
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) {
    // A concurrent or earlier Drain owns shutdown; wait for it.
    while (!drained_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return;
  }

  if (acceptor_.joinable()) acceptor_.join();
  if (watcher_.joinable()) watcher_.join();
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conns.swap(conn_threads_);
  }
  for (auto& t : conns) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  GUARDRAIL_LOG(INFO) << "serve drained"
                      << telemetry::Kv("port", static_cast<int64_t>(port_));
  drained_.store(true, std::memory_order_release);
}

}  // namespace serve
}  // namespace guardrail
