#include "src/apps/minikv.h"

#include <cstdio>
#include <cstring>

#include "src/common/logging.h"

namespace copier::apps {

MiniKv::MiniKv(AppProcess* server, Config config)
    : server_(server), config_(config), io_descriptor_(config.io_buf_bytes) {
  io_buf_ = server_->Map(config_.io_buf_bytes, "kv-io", true);
  for (size_t i = 0; i < config_.reply_buffers; ++i) {
    reply_bufs_.push_back(server_->Map(config_.io_buf_bytes, "kv-reply", true));
  }
}

StatusOr<std::string> MiniKv::Cursor::ReadLine() {
  // Header bytes are synced and fetched in 128-byte windows — apps should
  // csync "once every one to few KiB", not per byte (§5.1.1).
  AppIo& io = kv->server_->io();
  char line[36];
  size_t len = 0;
  while (len + 2 <= sizeof(line)) {
    if (pos + len + 2 > available) {
      return InvalidArgument("truncated request line");
    }
    while (window.size() < pos + len + 2) {
      const size_t chunk = std::min<size_t>(128, available - window.size());
      window.resize(window.size() + chunk);
      io.ReadSynced(base + window.size() - chunk, window.data() + window.size() - chunk, chunk,
                    ctx);
    }
    if (window[pos + len] == '\r' && window[pos + len + 1] == '\n') {
      pos += len + 2;
      return std::string(line, len);
    }
    line[len] = static_cast<char>(window[pos + len]);
    ++len;
  }
  return InvalidArgument("request line too long");
}

MiniKv::Entry& MiniKv::EntryFor(const std::string& key, size_t needed) {
  Entry& entry = store_[key];
  if (entry.capacity < needed) {
    const size_t capacity = AlignUp(std::max<size_t>(needed, 64), kPageSize);
    entry.va = server_->Map(capacity, "kv-value", true);
    entry.capacity = capacity;
  }
  return entry;
}

StatusOr<bool> MiniKv::ProcessOne(simos::SimSocket* sock, ExecContext* ctx) {
  AppIo& io = server_->io();
  // (1) request into the I/O buffer. The previous SET's copy out of this
  // buffer and the previous recv into it are ordered by Copier's dependency
  // tracking (or zIO's SourceReused) — see AppIo::Recv.
  auto received = io.Recv(sock, io_buf_, config_.io_buf_bytes, &io_descriptor_, ctx);
  if (!received.ok()) {
    if (received.status().code() == StatusCode::kUnavailable) {
      return false;
    }
    return received.status();
  }

  Cursor cursor{this, io_buf_, *received, 0, ctx};
  auto argc_line = cursor.ReadLine();  // "*2" | "*3"
  if (!argc_line.ok()) {
    return argc_line.status();
  }
  auto cmd_len_line = cursor.ReadLine();  // "$3"
  if (!cmd_len_line.ok()) {
    return cmd_len_line.status();
  }
  auto cmd_line = cursor.ReadLine();  // "SET" | "GET"
  if (!cmd_line.ok()) {
    return cmd_line.status();
  }
  auto key_len_line = cursor.ReadLine();  // "$<klen>"
  if (!key_len_line.ok()) {
    return key_len_line.status();
  }
  const size_t klen = std::strtoul(key_len_line->c_str() + 1, nullptr, 10);
  if (klen == 0 || klen > 512 || cursor.pos + klen + 2 > *received) {
    return InvalidArgument("bad key length");
  }
  // (5) internal copy: key bytes -> lookup scratch.
  std::string key(klen, '\0');
  io.ReadSynced(io_buf_ + cursor.pos, key.data(), klen, ctx);
  cursor.Skip(klen + 2);
  io.Compute(ctx, cursor.pos, kParseCpb, kDispatchFixed);  // protocol parse
  io.Compute(ctx, klen, kHashCpb, 120);                    // key hash + probe

  uint64_t reply_va = reply_bufs_[reply_cursor_];
  reply_cursor_ = (reply_cursor_ + 1) % reply_bufs_.size();

  if (*cmd_line == "SET") {
    ++sets_;
    auto val_len_line = cursor.ReadLine();  // "$<vlen>"
    if (!val_len_line.ok()) {
      return val_len_line.status();
    }
    const size_t vlen = std::strtoul(val_len_line->c_str() + 1, nullptr, 10);
    if (cursor.pos + vlen + 2 > *received) {
      return InvalidArgument("bad value length");
    }
    Entry& entry = EntryFor(key, vlen);
    // (2) value: I/O buffer -> store. Never touched by the server itself, so
    // in Copier mode this is pure async work and a prime absorption target
    // (recv's kernel->I/O task short-circuits into kernel->store).
    io.Copy(entry.va, io_buf_ + cursor.pos, vlen, ctx);
    entry.length = vlen;

    io.Write(reply_va, "+OK\r\n", 5, ctx);
    auto sent = io.Send(sock, reply_va, 5, ctx);
    if (!sent.ok()) {
      return sent.status();
    }
    return true;
  }

  if (*cmd_line == "GET") {
    ++gets_;
    auto it = store_.find(key);
    if (it == store_.end() || it->second.length == 0) {
      io.Write(reply_va, "$-1\r\n", 5, ctx);
      auto sent = io.Send(sock, reply_va, 5, ctx);
      return sent.ok() ? StatusOr<bool>(true) : StatusOr<bool>(sent.status());
    }
    ++hits_;
    Entry& entry = it->second;
    char header[32];
    const int header_len =
        std::snprintf(header, sizeof(header), "$%zu\r\n", entry.length);
    // Land the value page-aligned in the reply buffer: store values are
    // page-aligned (EntryFor maps them), so the store -> reply copy is
    // page-co-aligned and its subtasks split at the same page boundaries on
    // both sides. The header backs up from the value instead of the value
    // trailing the header.
    const uint64_t value_va = entry.length + 2 + kPageSize <= config_.io_buf_bytes
                                  ? reply_va + kPageSize
                                  : reply_va + header_len;
    const uint64_t reply_start = value_va - header_len;
    io.Write(reply_start, header, static_cast<size_t>(header_len), ctx);
    // (3) value: store -> output buffer. The server never reads the reply
    // buffer, so in Copier mode this is a Lazy Task: the send()'s k-mode
    // tasks absorb it into a direct store -> skb copy and the mediator is
    // aborted afterwards (§4.4, the same pattern as the proxy).
    const bool lazy_reply = io.mode == Mode::kCopier;
    io.Copy(value_va, entry.va, entry.length, ctx, lazy_reply);
    io.Write(value_va + entry.length, "\r\n", 2, ctx);
    // (4) reply: output buffer -> kernel.
    auto sent = io.Send(sock, reply_start, header_len + entry.length + 2, ctx);
    if (!sent.ok()) {
      return sent.status();
    }
    if (lazy_reply) {
      server_->lib()->abort_range(value_va, entry.length, ctx);
    }
    return true;
  }

  return InvalidArgument("unknown command: " + *cmd_line);
}

std::vector<uint8_t> MiniKv::BuildSet(const std::string& key,
                                      const std::vector<uint8_t>& value) {
  char header[96];
  const int n = std::snprintf(header, sizeof(header), "*3\r\n$3\r\nSET\r\n$%zu\r\n%s\r\n$%zu\r\n",
                              key.size(), key.c_str(), value.size());
  std::vector<uint8_t> out(header, header + n);
  out.insert(out.end(), value.begin(), value.end());
  out.push_back('\r');
  out.push_back('\n');
  return out;
}

std::vector<uint8_t> MiniKv::BuildGet(const std::string& key) {
  char buffer[96];
  const int n = std::snprintf(buffer, sizeof(buffer), "*2\r\n$3\r\nGET\r\n$%zu\r\n%s\r\n",
                              key.size(), key.c_str());
  return std::vector<uint8_t>(buffer, buffer + n);
}

size_t MiniKv::GetReplySize(size_t vlen) {
  char header[32];
  const int n = std::snprintf(header, sizeof(header), "$%zu\r\n", vlen);
  return static_cast<size_t>(n) + vlen + 2;
}

StatusOr<std::vector<uint8_t>> MiniKv::Lookup(const std::string& key) {
  auto it = store_.find(key);
  if (it == store_.end()) {
    return NotFound("no such key");
  }
  // Test-only accessor: settle pending copies first in Copier mode.
  if (server_->io().mode == Mode::kCopier) {
    COPIER_RETURN_IF_ERROR(server_->lib()->csync_all());
  }
  std::vector<uint8_t> value(it->second.length);
  COPIER_RETURN_IF_ERROR(
      server_->proc()->mem().ReadBytes(it->second.va, value.data(), value.size()));
  return value;
}

}  // namespace copier::apps
