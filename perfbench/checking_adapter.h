// EngineAdapter decorator used by the FlatStore benchmark.
//
// It forwards every call to the engine's own adapter unchanged (so vt
// results are those of the bare engine) and on the way:
//
//  * keeps the value-length oracle: every write the engine accepts sets
//    the length its key must read back with (0 = absent);
//  * checks every value a read returns (present, right length, every
//    byte 0x5A, the byte the server and Preload write) and every scan's
//    row count against the oracle, counting each mismatch;
//  * counts work per layer (calls, ops, retries, useful pumps);
//  * when a Tracer is attached, opens one span per call, named after the
//    layer the call enters.

#ifndef FLATSTORE_PERFBENCH_CHECKING_ADAPTER_H_
#define FLATSTORE_PERFBENCH_CHECKING_ADAPTER_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/server.h"
#include "trace.h"

namespace flatstore {
namespace perfbench {

// Byte every workload value is filled with (server.cc RunLoop, Preload).
inline constexpr uint8_t kValueByte = 0x5A;

// Expected state of the store: the length of each key's latest accepted
// write (0 = no live value) and the live user bytes (key + value).
class Oracle {
 public:
  void Set(uint64_t key, uint32_t len) {
    if (key >= len_.size()) len_.resize(key + 1 + (key >> 4), 0);
    uint32_t& cur = len_[key];
    if (cur != 0) {
      live_bytes_ -= sizeof(uint64_t) + cur;
      live_keys_--;
    }
    cur = len;
    if (len != 0) {
      live_bytes_ += sizeof(uint64_t) + len;
      live_keys_++;
    }
  }
  uint32_t Len(uint64_t key) const {
    return key < len_.size() ? len_[key] : 0;
  }
  uint64_t key_limit() const { return len_.size(); }
  uint64_t live_bytes() const { return live_bytes_; }
  uint64_t live_keys() const { return live_keys_; }

  // Rows a scan of up to `count` keys from `start` must find.
  uint64_t ScanRows(uint64_t start, uint64_t count) const {
    uint64_t rows = 0;
    for (uint64_t k = start; k < len_.size() && rows < count; k++) {
      if (len_[k] != 0) rows++;
    }
    return rows;
  }

  // True if `value` is what `key` must read back as.
  bool ValueOk(uint64_t key, const std::string& value) const {
    const uint32_t want = Len(key);
    if (want == 0 || value.size() != want) return false;
    static const std::vector<uint8_t> kFill(1 << 16, kValueByte);
    return value.size() <= kFill.size() &&
           std::memcmp(value.data(), kFill.data(), value.size()) == 0;
  }

 private:
  std::vector<uint32_t> len_;
  uint64_t live_bytes_ = 0;
  uint64_t live_keys_ = 0;
};

class CheckingAdapter final : public core::EngineAdapter {
 public:
  // Work counted at the adapter boundary since the last ResetCounters.
  struct Counters {
    uint64_t stage_calls = 0;     // write submissions (single or batch)
    uint64_t stage_ops = 0;       // writes offered, retries included
    uint64_t stage_retry = 0;     // kBusy + kBackpressure answers
    uint64_t txn_calls = 0;
    uint64_t txn_retry = 0;
    uint64_t read_calls = 0;
    uint64_t read_keys = 0;
    uint64_t read_deferred = 0;
    uint64_t scan_calls = 0;
    uint64_t scan_rows = 0;
    uint64_t pump_calls = 0;
    uint64_t pump_useful = 0;     // pumps that persisted >= 1 entry
    uint64_t pump_entries = 0;
    uint64_t drain_ops = 0;
    uint64_t user_writes = 0;     // accepted puts, txn members included
    uint64_t user_bytes = 0;      // key + value bytes of those puts
    uint64_t mismatches = 0;      // reads or scans that disagreed
  };

  CheckingAdapter(core::EngineAdapter* inner, Oracle* oracle)
      : inner_(inner), oracle_(oracle) {}

  void set_tracer(Tracer* t) { tracer_ = t; }
  const Counters& counters() const { return c_; }
  void ResetCounters() { c_ = Counters{}; }

  int num_cores() const override { return inner_->num_cores(); }
  int CoreForKey(uint64_t key) const override {
    return inner_->CoreForKey(key);
  }
  int SocketForCore(int core) const override {
    return inner_->SocketForCore(core);
  }
  const char* Name() const override { return inner_->Name(); }

  Submit SubmitPut(int core, uint64_t key, const void* value, uint32_t len,
                   uint64_t tag) override {
    ScopedSpan span(tracer_, "core.stage", core);
    const Submit st = inner_->SubmitPut(core, key, value, len, tag);
    c_.stage_calls++;
    NoteWrite(st, key, len, false);
    return st;
  }
  Submit SubmitDelete(int core, uint64_t key, uint64_t tag) override {
    ScopedSpan span(tracer_, "core.stage", core);
    const Submit st = inner_->SubmitDelete(core, key, tag);
    c_.stage_calls++;
    NoteWrite(st, key, 0, true);
    return st;
  }
  size_t SubmitWriteBatch(int core, const WriteReq* reqs, size_t n,
                          Submit* out) override {
    ScopedSpan span(tracer_, "core.stage", core);
    const size_t pending = inner_->SubmitWriteBatch(core, reqs, n, out);
    c_.stage_calls++;
    for (size_t i = 0; i < n; i++) {
      NoteWrite(out[i], reqs[i].key, reqs[i].len, reqs[i].tombstone);
    }
    return pending;
  }
  Submit SubmitTxn(int core, const core::TxnOp* ops, size_t n,
                   uint64_t tag) override {
    ScopedSpan span(tracer_, "core.txn", core);
    const Submit st = inner_->SubmitTxn(core, ops, n, tag);
    c_.txn_calls++;
    if (st == Submit::kBusy || st == Submit::kBackpressure) {
      c_.txn_retry++;
    } else if (st == Submit::kPending || st == Submit::kDoneNow) {
      for (size_t i = 0; i < n; i++) {
        if (ops[i].kind == core::TxnOpKind::kPut) {
          Accept(ops[i].key, ops[i].len);
        }
      }
    }
    return st;
  }

  bool Get(int core, uint64_t key, std::string* value) override {
    ScopedSpan span(tracer_, "core.read", core);
    const bool found = inner_->Get(core, key, value);
    c_.read_calls++;
    c_.read_keys++;
    if (found ? !oracle_->ValueOk(key, *value) : oracle_->Len(key) != 0) {
      c_.mismatches++;
    }
    return found;
  }
  size_t MultiGet(int core, const uint64_t* keys, size_t n,
                  core::ReadResult* results) override {
    ScopedSpan span(tracer_, "core.read", core);
    const size_t served = inner_->MultiGet(core, keys, n, results);
    c_.read_calls++;
    c_.read_keys += n;
    for (size_t i = 0; i < n; i++) {
      switch (results[i].status) {
        case core::GetResult::kDeferred:
          c_.read_deferred++;
          break;
        case core::GetResult::kFound:
          if (!oracle_->ValueOk(keys[i], results[i].value)) c_.mismatches++;
          break;
        case core::GetResult::kAbsent:
          if (oracle_->Len(keys[i]) != 0) c_.mismatches++;
          break;
      }
    }
    return served;
  }
  bool Scan(int core, uint64_t start_key, uint64_t count,
            uint64_t* found) override {
    ScopedSpan span(tracer_, "tier.scan", core);
    const bool ok = inner_->Scan(core, start_key, count, found);
    c_.scan_calls++;
    if (!ok || *found != oracle_->ScanRows(start_key, count)) {
      c_.mismatches++;
    }
    if (ok) c_.scan_rows += *found;
    return ok;
  }
  bool KeyBusy(int core, uint64_t key) const override {
    return inner_->KeyBusy(core, key);
  }

  size_t Pump(int core) override {
    ScopedSpan span(tracer_, "batch.pump", core);
    const size_t n = inner_->Pump(core);
    c_.pump_calls++;
    if (n > 0) {
      c_.pump_useful++;
      c_.pump_entries += n;
    }
    return n;
  }
  size_t Drain(int core, std::vector<Done>* done) override {
    ScopedSpan span(tracer_, "core.drain", core);
    const size_t n = inner_->Drain(core, done);
    c_.drain_ops += n;
    return n;
  }

 private:
  void NoteWrite(Submit st, uint64_t key, uint32_t len, bool tombstone) {
    c_.stage_ops++;
    switch (st) {
      case Submit::kPending:
      case Submit::kDoneNow:
        if (tombstone) {
          oracle_->Set(key, 0);
        } else {
          Accept(key, len);
        }
        break;
      case Submit::kBusy:
      case Submit::kBackpressure:
        c_.stage_retry++;
        break;
      default:  // kNotFound: a delete of an absent key changes nothing
        break;
    }
  }
  void Accept(uint64_t key, uint32_t len) {
    oracle_->Set(key, len);
    c_.user_writes++;
    c_.user_bytes += sizeof(uint64_t) + len;
  }

  core::EngineAdapter* inner_;
  Oracle* oracle_;
  Tracer* tracer_ = nullptr;
  Counters c_;
};

}  // namespace perfbench
}  // namespace flatstore

#endif  // FLATSTORE_PERFBENCH_CHECKING_ADAPTER_H_
