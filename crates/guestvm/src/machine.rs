//! The guest machine: memory layout and interpreter.

use odf_core::{Process, Result};

use crate::isa::{Instruction, Opcode, Register};
use crate::syscalls;

/// Guest memory layout (offsets within the guest-physical region):
///
/// ```text
/// 0x0000  guest kernel state (file table, task table, log ring)
/// 0x10000 program code
/// 0x20000 data / scratch
/// ```
///
/// The guest kernel area starts at guest-physical 0; see
/// [`crate::syscalls`] for its internal layout.
/// Offset of the code region.
pub const CODE_BASE: u64 = 0x10000;
/// Offset of the scratch data region.
pub const DATA_BASE: u64 = 0x20000;

/// Why an execution stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecOutcome {
    /// The program executed `HALT`.
    Halted {
        /// Instructions retired.
        steps: u64,
    },
    /// A load/store/fetch left guest memory — the guest "crashed".
    GuestFault {
        /// The offending guest-physical address.
        addr: u64,
    },
    /// An undecodable instruction was fetched.
    BadInstruction {
        /// Program counter of the bad fetch.
        pc: u64,
    },
    /// The step budget ran out (the "hang" signal for the fuzzer).
    StepLimit,
}

/// A guest VM: a guest-physical memory region inside a simulated host
/// process.
///
/// The handle is address-only (like the other substrates): after forking
/// the host process, using the same handle with the child operates on the
/// cloned guest — TriforceAFL's VM-cloning structure.
#[derive(Clone, Copy, Debug)]
pub struct GuestVm {
    base: u64,
    size: u64,
}

impl GuestVm {
    /// Allocates guest memory inside the host process and boots the guest
    /// kernel (initializes its tables).
    pub fn install(proc: &Process, mem_size: u64) -> Result<GuestVm> {
        assert!(mem_size >= DATA_BASE + 0x1000, "guest memory too small");
        let base = proc.mmap_anon(mem_size)?;
        let vm = GuestVm {
            base,
            size: mem_size,
        };
        syscalls::boot(proc, &vm)?;
        Ok(vm)
    }

    /// Guest memory size.
    pub fn mem_size(&self) -> u64 {
        self.size
    }

    /// Pre-faults the whole guest memory in the host process, like a
    /// fully booted emulator whose guest RAM is resident.
    pub fn prefault(&self, proc: &Process) -> Result<()> {
        proc.populate(self.base, self.size, true)
    }

    /// Reads guest memory.
    pub fn read(&self, proc: &Process, guest: u64, out: &mut [u8]) -> Result<bool> {
        match self.range(guest, out.len() as u64) {
            Some(host) => {
                proc.read(host, out)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Writes guest memory.
    pub fn write(&self, proc: &Process, guest: u64, data: &[u8]) -> Result<bool> {
        match self.range(guest, data.len() as u64) {
            Some(host) => {
                proc.write(host, data)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Reads a guest u64.
    pub fn read_u64(&self, proc: &Process, guest: u64) -> Result<Option<u64>> {
        let mut b = [0u8; 8];
        Ok(self
            .read(proc, guest, &mut b)?
            .then(|| u64::from_le_bytes(b)))
    }

    /// Writes a guest u64.
    pub fn write_u64(&self, proc: &Process, guest: u64, v: u64) -> Result<bool> {
        self.write(proc, guest, &v.to_le_bytes())
    }

    fn range(&self, guest: u64, len: u64) -> Option<u64> {
        if guest.checked_add(len)? <= self.size {
            Some(self.base + guest)
        } else {
            None
        }
    }

    /// Loads a program at [`CODE_BASE`], terminated with `HALT`.
    pub fn load_program(&self, proc: &Process, program: &[Instruction]) -> Result<()> {
        let mut at = CODE_BASE;
        for ins in program {
            self.write(proc, at, &ins.encode())?;
            at += Instruction::SIZE;
        }
        self.write(
            proc,
            at,
            &Instruction {
                op: Opcode::Halt,
                ra: Register(0),
                rb: Register(0),
                imm: 0,
            }
            .encode(),
        )?;
        Ok(())
    }

    /// Runs the interpreter from [`CODE_BASE`] for at most `max_steps`
    /// instructions. `cov` receives a location value per retired control
    /// transfer and syscall branch (the AFL-style edge source).
    pub fn exec(
        &self,
        proc: &Process,
        max_steps: u64,
        cov: &mut dyn FnMut(u64),
    ) -> Result<ExecOutcome> {
        let mut regs = [0u64; Register::COUNT];
        let mut pc = CODE_BASE;
        for step in 0..max_steps {
            let mut raw = [0u8; 8];
            if !self.read(proc, pc, &mut raw)? {
                return Ok(ExecOutcome::GuestFault { addr: pc });
            }
            let Some(ins) = Instruction::decode(&raw) else {
                return Ok(ExecOutcome::BadInstruction { pc });
            };
            let ra = ins.ra.0 as usize;
            let rb = ins.rb.0 as usize;
            pc += Instruction::SIZE;
            match ins.op {
                Opcode::Halt => return Ok(ExecOutcome::Halted { steps: step }),
                Opcode::LoadImm => regs[ra] = u64::from(ins.imm),
                Opcode::Mov => regs[ra] = regs[rb],
                Opcode::Add => regs[ra] = regs[ra].wrapping_add(regs[rb]),
                Opcode::Sub => regs[ra] = regs[ra].wrapping_sub(regs[rb]),
                Opcode::Xor => regs[ra] ^= regs[rb],
                Opcode::Mul => regs[ra] = regs[ra].wrapping_mul(regs[rb]),
                Opcode::And => regs[ra] &= regs[rb],
                Opcode::Or => regs[ra] |= regs[rb],
                Opcode::Shl => regs[ra] <<= u64::from(ins.imm) & 63,
                Opcode::Shr => regs[ra] >>= u64::from(ins.imm) & 63,
                Opcode::Load => {
                    let addr = regs[rb].wrapping_add(u64::from(ins.imm));
                    match self.read_u64(proc, addr)? {
                        Some(v) => regs[ra] = v,
                        None => return Ok(ExecOutcome::GuestFault { addr }),
                    }
                }
                Opcode::Store => {
                    let addr = regs[ra].wrapping_add(u64::from(ins.imm));
                    if !self.write_u64(proc, addr, regs[rb])? {
                        return Ok(ExecOutcome::GuestFault { addr });
                    }
                }
                Opcode::Jmp => {
                    pc = CODE_BASE + u64::from(ins.imm);
                    cov(pc);
                }
                Opcode::Jz => {
                    if regs[ra] == 0 {
                        pc = CODE_BASE + u64::from(ins.imm);
                    }
                    cov(pc ^ 0x9E37);
                }
                Opcode::Syscall => {
                    let args = [regs[0], regs[1], regs[2], regs[3]];
                    regs[0] = syscalls::dispatch(proc, self, u64::from(ins.imm), args, cov)?;
                }
            }
        }
        Ok(ExecOutcome::StepLimit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::assemble;
    use odf_core::Kernel;

    fn setup() -> (std::sync::Arc<Kernel>, Process, GuestVm) {
        let k = Kernel::new(64 << 20);
        let p = k.spawn().unwrap();
        let vm = GuestVm::install(&p, 4 << 20).unwrap();
        (k, p, vm)
    }

    #[test]
    fn arithmetic_program_computes() {
        let (_k, p, vm) = setup();
        vm.load_program(
            &p,
            &[
                assemble(Opcode::LoadImm, 0, 0, 20),
                assemble(Opcode::LoadImm, 1, 0, 22),
                assemble(Opcode::Add, 0, 1, 0),
                assemble(Opcode::Store, 2, 0, DATA_BASE as u32), // [r2 + DATA_BASE] = r0
            ],
        )
        .unwrap();
        let out = vm.exec(&p, 100, &mut |_| {}).unwrap();
        assert_eq!(out, ExecOutcome::Halted { steps: 4 });
        assert_eq!(vm.read_u64(&p, DATA_BASE).unwrap().unwrap(), 42);
    }

    #[test]
    fn alu_extension_opcodes_compute() {
        let (_k, p, vm) = setup();
        vm.load_program(
            &p,
            &[
                assemble(Opcode::LoadImm, 0, 0, 6),
                assemble(Opcode::LoadImm, 1, 0, 7),
                assemble(Opcode::Mul, 0, 1, 0), // r0 = 42
                assemble(Opcode::Shl, 0, 0, 8), // r0 = 42 << 8
                assemble(Opcode::LoadImm, 1, 0, 0xFF00),
                assemble(Opcode::And, 0, 1, 0), // r0 = 0x2A00
                assemble(Opcode::LoadImm, 1, 0, 1),
                assemble(Opcode::Or, 0, 1, 0),  // r0 |= 1
                assemble(Opcode::Shr, 0, 0, 4), // r0 >>= 4
                assemble(Opcode::LoadImm, 2, 0, DATA_BASE as u32),
                assemble(Opcode::Store, 2, 0, 0),
            ],
        )
        .unwrap();
        let out = vm.exec(&p, 100, &mut |_| {}).unwrap();
        assert!(matches!(out, ExecOutcome::Halted { .. }));
        assert_eq!(
            vm.read_u64(&p, DATA_BASE).unwrap().unwrap(),
            ((42u64 << 8) & 0xFF00 | 1) >> 4
        );
    }

    #[test]
    fn loops_and_branches_execute() {
        let (_k, p, vm) = setup();
        // r0 = 5; loop: r0 -= 1; jnz -> via jz over the jump.
        vm.load_program(
            &p,
            &[
                assemble(Opcode::LoadImm, 0, 0, 5),
                assemble(Opcode::LoadImm, 1, 0, 1),
                // loop (offset 16):
                assemble(Opcode::Sub, 0, 1, 0),
                assemble(Opcode::Jz, 0, 0, 5 * 8), // if r0==0 jump to halt
                assemble(Opcode::Jmp, 0, 0, 2 * 8),
            ],
        )
        .unwrap();
        let mut edges = 0;
        let out = vm.exec(&p, 1000, &mut |_| edges += 1).unwrap();
        assert!(matches!(out, ExecOutcome::Halted { .. }));
        assert!(edges >= 9, "5 JZ + 4 JMP edges, got {edges}");
    }

    #[test]
    fn out_of_bounds_access_is_a_guest_fault() {
        let (_k, p, vm) = setup();
        vm.load_program(
            &p,
            &[
                assemble(Opcode::LoadImm, 1, 0, u32::MAX),
                assemble(Opcode::Load, 0, 1, 0),
            ],
        )
        .unwrap();
        let out = vm.exec(&p, 100, &mut |_| {}).unwrap();
        assert_eq!(
            out,
            ExecOutcome::GuestFault {
                addr: u64::from(u32::MAX)
            }
        );
    }

    #[test]
    fn undecodable_instruction_reports_pc() {
        let (_k, p, vm) = setup();
        vm.write(&p, CODE_BASE, &[0xFFu8; 8]).unwrap();
        let out = vm.exec(&p, 100, &mut |_| {}).unwrap();
        assert_eq!(out, ExecOutcome::BadInstruction { pc: CODE_BASE });
    }

    #[test]
    fn infinite_loop_hits_step_limit() {
        let (_k, p, vm) = setup();
        vm.load_program(&p, &[assemble(Opcode::Jmp, 0, 0, 0)])
            .unwrap();
        let out = vm.exec(&p, 50, &mut |_| {}).unwrap();
        assert_eq!(out, ExecOutcome::StepLimit);
    }

    #[test]
    fn cloned_vm_is_isolated_from_parent() {
        let (_k, p, vm) = setup();
        vm.write_u64(&p, DATA_BASE, 111).unwrap();
        let clone = p.fork_with(odf_core::ForkPolicy::OnDemand).unwrap();
        vm.write_u64(&clone, DATA_BASE, 222).unwrap();
        assert_eq!(vm.read_u64(&p, DATA_BASE).unwrap().unwrap(), 111);
        assert_eq!(vm.read_u64(&clone, DATA_BASE).unwrap().unwrap(), 222);
    }
}
