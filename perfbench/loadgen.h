#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "chain/types.h"
#include "net/client.h"
#include "serve/protocol.h"
#include "util/status.h"

/// \file loadgen.h
/// \brief Single-threaded pipelining load generator over net::Client.
///
/// One thread keeps many requests in flight on a fixed set of BANP
/// connections: it writes request frames with `Client::Send` and waits
/// for responses with poll(2) on every `Client::fd()`. The sockets are
/// switched to non-blocking mode after connecting, so
/// `Client::ReadResponse` returns DeadlineExceeded as soon as neither
/// its frame decoder nor the socket holds a complete frame — which is
/// how `Poll` drains every buffered response without ever blocking.

namespace perfbench {

/// Monotonic nanoseconds (steady clock), the time base of every
/// latency the benchmark reports.
int64_t NowNs();

/// \brief One request the generator sent and has not yet matched.
struct Sent {
  ba::chain::AddressId address = ba::chain::kInvalidAddress;
  /// Where its client-observed latency starts: the send time, or the
  /// start of the poll it belongs to (chain_follow).
  int64_t due_ns = 0;
  /// When its frame was written.
  int64_t send_ns = 0;
  /// Pass or block the request belongs to.
  int group = 0;
  /// Trace id it carried (0 = untraced).
  uint64_t trace_id = 0;
};

class Loadgen {
 public:
  using OnReply = std::function<void(int conn, const Sent& sent,
                                     const ba::serve::ClassifyResponse& resp,
                                     int64_t recv_ns)>;

  /// Opens `connections` connections to 127.0.0.1:`port`.
  ba::Status Connect(uint16_t port, int connections);

  /// Writes one classify request on connection `conn`. With `traced`
  /// the request carries a fresh trace id, so the engine echoes it in
  /// the timeline and the server and engine record flow events.
  ba::Status Send(int conn, ba::chain::AddressId address, int64_t due_ns,
                  int group, bool traced);

  /// Waits up to `timeout_ms` for responses, then hands every complete
  /// one to `on_reply` (with the request it answers).
  ba::Status Poll(int timeout_ms, const OnReply& on_reply);

  /// Polls until nothing is outstanding; fails after `timeout_ms`.
  ba::Status Drain(int timeout_ms, const OnReply& on_reply);

  int connections() const { return static_cast<int>(clients_.size()); }

 private:
  int64_t total_outstanding() const;

  std::vector<ba::net::Client> clients_;
  std::vector<std::unordered_map<uint64_t, Sent>> pending_;
  uint64_t next_id_ = 1;
};

}  // namespace perfbench
