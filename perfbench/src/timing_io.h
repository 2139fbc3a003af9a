// Timing decorator for the durability plane's file I/O.
//
// Injected through persist::DurabilityConfig::io into a real engine run,
// it times and counts every append, sync and checkpoint write the durable
// store issues, and forwards each call's result (or exception) unchanged.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "persist/file_io.h"
#include "trace.h"

namespace simdc::perfbench {

class TimingFileIo final : public persist::FileIo {
 public:
  explicit TimingFileIo(persist::FileIo* inner) : inner_(inner) {}

  Status Append(const std::string& path,
                std::span<const std::byte> bytes) override {
    const Timer timer(append_ns_);
    bytes_ += bytes.size();
    return inner_->Append(path, bytes);
  }
  Status Sync(const std::string& path) override {
    const Timer timer(sync_ns_);
    ++syncs_;
    return inner_->Sync(path);
  }
  Status WriteFile(const std::string& path,
                   std::span<const std::byte> bytes) override {
    const Timer timer(checkpoint_ns_);
    bytes_ += bytes.size();
    return inner_->WriteFile(path, bytes);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    const Timer timer(checkpoint_ns_);
    return inner_->Rename(from, to);
  }
  Result<std::vector<std::byte>> ReadFile(const std::string& path) override {
    return inner_->ReadFile(path);
  }
  Result<std::uint64_t> FileSize(const std::string& path) override {
    return inner_->FileSize(path);
  }
  Status TruncateTo(const std::string& path, std::uint64_t size) override {
    return inner_->TruncateTo(path, size);
  }
  bool Exists(const std::string& path) override { return inner_->Exists(path); }
  Status Remove(const std::string& path) override {
    return inner_->Remove(path);
  }
  Status CreateDirs(const std::string& path) override {
    return inner_->CreateDirs(path);
  }

  std::int64_t append_ns() const { return append_ns_; }
  std::int64_t sync_ns() const { return sync_ns_; }
  /// Checkpoint publication: temp-file write (with its sync) plus rename.
  std::int64_t checkpoint_ns() const { return checkpoint_ns_; }
  /// Bytes handed to Append and WriteFile.
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t syncs() const { return syncs_; }

 private:
  /// Adds the scope's duration to `sink`, also when the call throws.
  class Timer {
   public:
    explicit Timer(std::int64_t& sink) : sink_(sink), start_(NowNs()) {}
    ~Timer() { sink_ += NowNs() - start_; }
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

   private:
    std::int64_t& sink_;
    std::int64_t start_;
  };

  persist::FileIo* inner_;
  std::int64_t append_ns_ = 0;
  std::int64_t sync_ns_ = 0;
  std::int64_t checkpoint_ns_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t syncs_ = 0;
};

}  // namespace simdc::perfbench
