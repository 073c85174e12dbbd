#include "src/glue_tap.h"

namespace perfbench {

using copier::ExecContext;
using copier::Status;

void GlueTap::Install(copier::simos::SimKernel* kernel) {
  kernel->SetCopyBackend(this);
  kernel->SetTrapHooks(this);
}

void GlueTap::OnTrapEnter(copier::simos::Process& proc, ExecContext* ctx) {
  ScopedSpan span(tracer_, "linux_glue.trap_enter", Layer::kLinuxGlue, ctx);
  glue_->OnTrapEnter(proc, ctx);
}

void GlueTap::OnTrapExit(copier::simos::Process& proc, ExecContext* ctx) {
  ScopedSpan span(tracer_, "linux_glue.trap_exit", Layer::kLinuxGlue, ctx);
  glue_->OnTrapExit(proc, ctx);
}

Status GlueTap::Copy(const copier::simos::UserCopyOp& op) {
  ScopedSpan span(tracer_, "linux_glue.copy", Layer::kLinuxGlue, op.ctx);
  return glue_->Copy(op);
}

Status GlueTap::CopyV(const copier::simos::UserCopyVecOp& op, size_t* segs_submitted) {
  ScopedSpan span(tracer_, "linux_glue.copyv", Layer::kLinuxGlue, op.ctx);
  return glue_->CopyV(op, segs_submitted);
}

Status GlueTap::CopyFused(const copier::simos::FusedCopyOp& op) {
  ScopedSpan span(tracer_, "linux_glue.copy_fused", Layer::kLinuxGlue, op.ctx);
  return glue_->CopyFused(op);
}

void GlueTap::RegisterWindow(copier::simos::Process* proc, uint64_t va, size_t length,
                             ExecContext* ctx) {
  ScopedSpan span(tracer_, "linux_glue.register_window", Layer::kLinuxGlue, ctx);
  glue_->RegisterWindow(proc, va, length, ctx);
}

Status GlueTap::SyncKernel(copier::simos::Process* proc, ExecContext* ctx) {
  ScopedSpan span(tracer_, "linux_glue.sync_kernel", Layer::kLinuxGlue, ctx);
  return glue_->SyncKernel(proc, ctx);
}

}  // namespace perfbench
