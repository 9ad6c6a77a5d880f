#include "loadgen.h"

#include <poll.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>

#include "net/socket.h"
#include "obs/trace.h"

namespace perfbench {

using ba::Status;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status Loadgen::Connect(uint16_t port, int connections) {
  for (int i = 0; i < connections; ++i) {
    BA_ASSIGN_OR_RETURN(ba::net::Client client,
                        ba::net::Client::Connect("127.0.0.1", port));
    BA_RETURN_NOT_OK(ba::net::SetNonBlocking(client.fd()));
    clients_.push_back(std::move(client));
    pending_.emplace_back();
  }
  return Status::OK();
}

Status Loadgen::Send(int conn, ba::chain::AddressId address, int64_t due_ns,
                     int group, bool traced) {
  const uint64_t id = next_id_++;
  ba::serve::ClassifyOptions options;
  if (traced) options.trace_id = id;
  Sent sent;
  sent.address = address;
  sent.due_ns = due_ns;
  sent.group = group;
  sent.trace_id = options.trace_id;
  sent.send_ns = NowNs();
  BA_RETURN_NOT_OK(
      clients_[static_cast<size_t>(conn)].Send(id, address, options));
  pending_[static_cast<size_t>(conn)].emplace(id, sent);
  return Status::OK();
}

Status Loadgen::Poll(int timeout_ms, const OnReply& on_reply) {
  std::vector<pollfd> fds(clients_.size());
  for (size_t i = 0; i < clients_.size(); ++i) {
    fds[i] = {clients_[i].fd(), POLLIN, 0};
  }
  const int ready =
      ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
  if (ready < 0) {
    if (errno == EINTR) return Status::OK();
    return Status::Internal(std::string("poll: ") + std::strerror(errno));
  }
  for (size_t i = 0; i < clients_.size(); ++i) {
    if (fds[i].revents == 0) continue;
    while (true) {
      auto resp = clients_[i].ReadResponse();
      if (!resp.ok()) {
        // Non-blocking socket with no complete frame left.
        if (resp.status().code() == ba::StatusCode::kDeadlineExceeded) break;
        return resp.status();
      }
      const int64_t recv_ns = NowNs();
      auto& pending = pending_[i];
      auto it = pending.find(resp.value().request_id);
      if (it == pending.end()) {
        return Status::Internal("response for unknown request id " +
                                std::to_string(resp.value().request_id));
      }
      const Sent sent = it->second;
      pending.erase(it);
      if (sent.trace_id != 0) {
        // The client's extent of the request flow, stitched with the
        // server's and engine's flow events by trace id.
        ba::obs::Tracer& tracer = ba::obs::Tracer::Instance();
        const int64_t dur = recv_ns - sent.send_ns;
        tracer.RecordAsync("net.client.request", sent.trace_id,
                           ba::obs::Tracer::NowNs() - dur, dur);
      }
      on_reply(static_cast<int>(i), sent, resp.value(), recv_ns);
    }
  }
  return Status::OK();
}

Status Loadgen::Drain(int timeout_ms, const OnReply& on_reply) {
  const int64_t give_up = NowNs() + int64_t{timeout_ms} * 1'000'000;
  while (total_outstanding() > 0) {
    if (NowNs() > give_up) {
      return Status::DeadlineExceeded(
          std::to_string(total_outstanding()) +
          " requests still unanswered after the drain timeout");
    }
    BA_RETURN_NOT_OK(Poll(10, on_reply));
  }
  return Status::OK();
}

int64_t Loadgen::total_outstanding() const {
  int64_t n = 0;
  for (const auto& p : pending_) n += static_cast<int64_t>(p.size());
  return n;
}

}  // namespace perfbench
