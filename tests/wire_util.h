// Raw-frame helper for the server tests: one loopback connection that sends
// hand-built frames verbatim and reads the typed reply, so a test can show
// that a hostile request was answered AND that the same connection keeps
// serving afterwards.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "skc/net/frame.h"
#include "skc/net/socket.h"

namespace skc::testutil {

class RawConnection {
 public:
  explicit RawConnection(std::uint16_t port) {
    std::string error;
    sock_ = net::connect_to("127.0.0.1", port, 2000, error);
    EXPECT_TRUE(sock_.valid()) << error;
  }

  /// Sends `frame` and reads one reply frame.  False on a transport failure
  /// (for instance the server closed the connection).
  bool exchange(const std::string& frame, net::Status& status,
                std::string& payload) {
    if (net::send_exact(sock_, frame.data(), frame.size(), 2000) !=
        net::IoResult::kOk) {
      return false;
    }
    std::string header(net::kFrameHeaderBytes, '\0');
    if (net::recv_exact(sock_, header.data(), header.size(), 10000) !=
        net::IoResult::kOk) {
      return false;
    }
    net::FrameHeader h;
    if (net::decode_header(header, h) != net::Status::kOk) return false;
    payload.assign(h.payload_bytes, '\0');
    if (h.payload_bytes > 0 &&
        net::recv_exact(sock_, payload.data(), payload.size(), 10000) !=
            net::IoResult::kOk) {
      return false;
    }
    status = h.status;
    return true;
  }

  /// True iff a PING on this connection echoes its payload.
  bool ping_echoes() {
    net::Status status = net::Status::kOk;
    std::string payload;
    return exchange(net::encode_frame(net::MsgType::kPing, net::Status::kOk,
                                      "still-here"),
                    status, payload) &&
           status == net::Status::kOk && payload == "still-here";
  }

 private:
  net::Socket sock_;
};

}  // namespace skc::testutil
