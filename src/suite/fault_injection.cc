#include "suite/fault_injection.hh"

namespace spec17 {
namespace suite {

FaultInjector::~FaultInjector() = default;

void
ScriptedFaultInjector::set(const std::string &pair, unsigned attempt,
                           Action action)
{
    plan_[{pair, attempt}] = action;
}

void
ScriptedFaultInjector::failFirstAttempts(const std::string &pair,
                                         unsigned fail_count)
{
    for (unsigned attempt = 0; attempt < fail_count; ++attempt)
        set(pair, attempt, Action::Throw);
}

FaultInjector::Action
ScriptedFaultInjector::onAttempt(const std::string &pair,
                                 unsigned attempt)
{
    std::lock_guard<std::mutex> lock(mutex_);
    consulted_.emplace_back(pair, attempt);
    const auto it = plan_.find({pair, attempt});
    return it == plan_.end() ? Action::None : it->second;
}

JournalIoFaultInjector::~JournalIoFaultInjector() = default;

void
ScriptedJournalIoFaults::tornWriteAt(unsigned commit_index,
                                     std::size_t keep_bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    writePlan_[commit_index] = {WriteFault::Kind::TornWrite,
                                keep_bytes};
}

void
ScriptedJournalIoFaults::enospcFrom(unsigned commit_index)
{
    std::lock_guard<std::mutex> lock(mutex_);
    enospcFrom_ = commit_index;
}

void
ScriptedJournalIoFaults::shortReadNext(std::size_t keep_bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ReadFault fault;
    fault.kind = ReadFault::Kind::ShortRead;
    fault.keepBytes = keep_bytes;
    readPlan_.push_back(fault);
}

void
ScriptedJournalIoFaults::bitFlipNext(std::size_t offset, unsigned bit)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ReadFault fault;
    fault.kind = ReadFault::Kind::BitFlip;
    fault.offset = offset;
    fault.bit = bit;
    readPlan_.push_back(fault);
}

JournalIoFaultInjector::WriteFault
ScriptedJournalIoFaults::onJournalWrite(const std::string &,
                                        unsigned commit_index)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++writes_;
    const auto it = writePlan_.find(commit_index);
    if (it != writePlan_.end())
        return it->second;
    if (commit_index >= enospcFrom_)
        return {WriteFault::Kind::Enospc, 0};
    return {};
}

JournalIoFaultInjector::ReadFault
ScriptedJournalIoFaults::onJournalRead(const std::string &)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++reads_;
    if (readPlan_.empty())
        return {};
    const ReadFault fault = readPlan_.front();
    readPlan_.pop_front();
    return fault;
}

unsigned
ScriptedJournalIoFaults::writesConsulted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return writes_;
}

unsigned
ScriptedJournalIoFaults::readsConsulted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return reads_;
}

} // namespace suite
} // namespace spec17
