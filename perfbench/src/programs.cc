#include "src/programs.h"

#include "src/sfi/assembler.h"

namespace perfbench {

using vino::Asm;
using vino::Program;
using namespace vino;  // Register names R0..R11.

namespace {

// readahead: a short policy loop, then next = current + 8.
Program ReadaheadFamily(const std::string& name) {
  Asm a(name);
  auto loop = a.NewLabel();
  a.Mov(R1, R0);
  a.LoadImm(R2, 0);
  a.LoadImm(R3, 16);
  a.Bind(loop);
  a.AddI(R4, R2, 3);
  a.Xor(R4, R4, R1);
  a.AddI(R2, R2, 1);
  a.BltU(R2, R3, loop);
  a.AddI(R0, R1, 8);
  a.Halt();
  return *a.Finish();
}

// evict: fill a 16-slot table in the arena, return victim = block % 16.
Program EvictFamily(const std::string& name) {
  Asm a(name);
  auto loop = a.NewLabel();
  a.Mov(R5, R0);
  a.LoadImm(R1, kFamilyArenaBase);
  a.LoadImm(R2, 0);
  a.LoadImm(R3, 16);
  a.Bind(loop);
  a.St64(R1, R2);
  a.AddI(R1, R1, 8);
  a.AddI(R2, R2, 1);
  a.BltU(R2, R3, loop);
  a.LoadImm(R6, 16);
  a.RemU(R0, R5, R6);
  a.Halt();
  return *a.Finish();
}

// encrypt: xor 8 arena words in place keyed by the request id, return 1.
Program EncryptFamily(const std::string& name) {
  Asm a(name);
  auto loop = a.NewLabel();
  a.Mov(R5, R0);
  a.LoadImm(R1, kFamilyArenaBase);
  a.LoadImm(R2, 0);
  a.LoadImm(R3, 8);
  a.Bind(loop);
  a.Ld64(R4, R1);
  a.XorI(R4, R4, 0x5A);
  a.Xor(R4, R4, R5);
  a.St64(R1, R4);
  a.AddI(R1, R1, 8);
  a.AddI(R2, R2, 1);
  a.BltU(R2, R3, loop);
  a.LoadImm(R0, 1);
  a.Halt();
  return *a.Finish();
}

// sched: priority = (block * 2654435761) >> 24 & 0xff, always < 256.
Program SchedFamily(const std::string& name) {
  Asm a(name);
  a.MulI(R2, R0, 2654435761);
  a.ShrI(R2, R2, 24);
  a.AndI(R0, R2, 255);
  a.Halt();
  return *a.Finish();
}

}  // namespace

Program FamilyProgram(int family, const std::string& name) {
  switch (family) {
    case 0:
      return ReadaheadFamily(name);
    case 1:
      return EvictFamily(name);
    case 2:
      return EncryptFamily(name);
    default:
      return SchedFamily(name);
  }
}

uint64_t FamilyResult(int family, uint64_t a0, uint64_t /*a1*/) {
  switch (family) {
    case 0:
      return a0 + 8;
    case 1:
      return a0 % 16;
    case 2:
      return 1;
    default:
      return ((a0 * 2654435761ull) >> 24) & 255;
  }
}

Program SpinnerProgram(const std::string& name) {
  Asm a(name);
  auto forever = a.NewLabel();
  a.Bind(forever);
  a.Jmp(forever);
  return *a.Finish();
}

Program StrikerProgram(const std::string& name) {
  Asm a(name);
  a.LoadImm(R0, 100000);  // Far past a validated point's < 256 bound.
  a.Halt();
  return *a.Finish();
}

Program MemHogProgram(const std::string& name, uint32_t alloc_id) {
  Asm a(name);
  a.LoadImm(R0, 1 << 20);
  a.Call(alloc_id);
  a.Halt();
  return *a.Finish();
}

Program LockUndoHogProgram(const std::string& name, uint32_t lock_id,
                           uint32_t undo_id, int locks, int undo) {
  Asm a(name);
  for (int i = 0; i < locks; ++i) {
    a.LoadImm(R0, i);
    a.Call(lock_id);
  }
  a.LoadImm(R0, undo);
  a.Call(undo_id);
  auto forever = a.NewLabel();
  a.Bind(forever);
  a.Jmp(forever);
  return *a.Finish();
}

Program HttpProgram(const std::string& name, const HostCallTable& host,
                    int64_t response_len, bool hang) {
  const uint32_t recv = host.IdOf("net.recv").value();
  const uint32_t send = host.IdOf("net.send").value();
  const uint32_t close = host.IdOf("net.close").value();
  const int64_t response = kFamilyArenaBase + kHttpResponseOffset;

  Asm a(name);
  auto not_get = a.NewLabel();
  a.Mov(R6, R0);  // connection id
  a.LoadImm(R7, kFamilyArenaBase);
  a.Mov(R1, R7);
  a.LoadImm(R2, 1024);
  a.Call(recv);
  a.Ld8(R9, R7);
  a.LoadImm(R10, 'G');
  a.Bne(R9, R10, not_get);
  if (hang) {
    a.Mov(R0, R6);
    a.LoadImm(R1, response);
    a.LoadImm(R2, 16);
    a.Call(send);
    auto forever = a.NewLabel();
    a.Bind(forever);
    a.Jmp(forever);
  }
  a.Mov(R0, R6);
  a.LoadImm(R1, response);
  a.LoadImm(R2, response_len);
  a.Call(send);
  a.Bind(not_get);
  a.Mov(R0, R6);
  a.Call(close);
  a.LoadImm(R0, 1);
  a.Halt();
  return *a.Finish();
}

const char* const kCipherSource = R"(
  ; rolling-xor stream cipher. args: r0=in r1=out r2=count r3=dir
  loadi r4, 0
  loadi r5, 0x5c
loop:
  bgeu r4, r2, done
  add r6, r0, r4
  ld8 r7, r6
  xor r7, r7, r5
  andi r8, r4, 0xff
  xor r7, r7, r8
  add r6, r1, r4
  st8 r6, r7
  addi r4, r4, 1
  jmp loop
done:
  loadi r0, 0
  halt
)";

const char* const kReadaheadSource = R"(
  ; copy the application's hint pairs (offset,length) to the output area.
  ; args: r0=offset r1=len r2=hints r3=count r4=out r5=max
  mov r6, r3
  bgeu r5, r6, copy
  mov r6, r5
copy:
  loadi r7, 0
loop:
  bgeu r7, r6, done
  shli r8, r7, 4
  add r9, r2, r8
  add r10, r4, r8
  ld64 r11, r9
  st64 r10, r11
  ld64 r11, r9, 8
  st64 r10, r11, 8
  addi r7, r7, 1
  jmp loop
done:
  mov r0, r6
  halt
)";

}  // namespace perfbench
