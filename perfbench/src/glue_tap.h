// Forwarding interposer between SimKernel and CopierLinux: installed as the
// kernel's copy backend and trap observer in place of the glue, it times
// every backend call and trap hook as a linux_glue.* span and forwards it
// unchanged. This makes glue time visible inside simos.* and apps.* calls.
#ifndef PERFBENCH_SRC_GLUE_TAP_H_
#define PERFBENCH_SRC_GLUE_TAP_H_

#include "src/core/linux_glue.h"
#include "src/trace.h"

namespace perfbench {

class GlueTap : public copier::simos::SimKernel::TrapHooks,
                public copier::simos::KernelCopyBackend {
 public:
  GlueTap(copier::core::CopierLinux* glue, Tracer* tracer) : glue_(glue), tracer_(tracer) {}

  // Takes the glue's place as the kernel's backend and trap observer.
  void Install(copier::simos::SimKernel* kernel);

  void OnTrapEnter(copier::simos::Process& proc, copier::ExecContext* ctx) override;
  void OnTrapExit(copier::simos::Process& proc, copier::ExecContext* ctx) override;

  copier::Status Copy(const copier::simos::UserCopyOp& op) override;
  copier::Status CopyV(const copier::simos::UserCopyVecOp& op,
                       size_t* segs_submitted = nullptr) override;
  bool SupportsFusedIpc() const override { return glue_->SupportsFusedIpc(); }
  bool SupportsRecvRing() const override { return glue_->SupportsRecvRing(); }
  bool SupportsForwardFuse() const override { return glue_->SupportsForwardFuse(); }
  copier::Status CopyFused(const copier::simos::FusedCopyOp& op) override;
  void NoteFuseEvent(copier::simos::FuseEvent event) override { glue_->NoteFuseEvent(event); }
  void RegisterWindow(copier::simos::Process* proc, uint64_t va, size_t length,
                      copier::ExecContext* ctx) override;
  copier::Status SyncKernel(copier::simos::Process* proc, copier::ExecContext* ctx) override;
  const char* name() const override { return glue_->name(); }

 private:
  copier::core::CopierLinux* glue_;
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_GLUE_TAP_H_
