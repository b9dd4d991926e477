//! Variable residency: where each program value lives in the shared
//! address space, and the staging transfers that move a line's inputs next
//! to the engine that reads them.

use super::ShardSlice;
use crate::error::{ActivePyError, Result};
use crate::recovery::Recovery;
use alang::{Program, Vm};
use csd_sim::units::Bytes;
use csd_sim::{Direction, EngineKind, System};
use std::collections::BTreeMap;

/// Shared-address-space bookkeeping: every materialized program value is a
/// real allocation in [`csd_sim::memory::SharedAddressSpace`], placed near
/// its consumer and migrated when it crosses the interconnect. Region-
/// internal intermediates are chunk-pipelined and never fully materialize,
/// so only escaping values are bound.
#[derive(Debug, Default)]
pub(super) struct VarSpace {
    objects: BTreeMap<String, csd_sim::memory::ObjectId>,
    pub(super) peak_device: u64,
}

impl VarSpace {
    /// (Re)binds `name` to a fresh allocation of `bytes` near `engine`.
    pub(super) fn bind(
        &mut self,
        system: &mut System,
        name: &str,
        engine: EngineKind,
        bytes: u64,
    ) -> Result<()> {
        if let Some(old) = self.objects.remove(name) {
            system
                .memory_mut()
                .dealloc(old)
                .map_err(|e| ActivePyError::exec(format!("dealloc `{name}`: {e}")))?;
        }
        if bytes == 0 {
            return Ok(());
        }
        let id = system
            .memory_mut()
            .alloc_near(engine, csd_sim::units::Bytes::new(bytes))
            .map_err(|e| ActivePyError::exec(format!("allocating {bytes} B for `{name}`: {e}")))?;
        self.objects.insert(name.to_owned(), id);
        self.update_peak(system);
        Ok(())
    }

    /// Moves `name`'s allocation next to `engine`, if it is materialized.
    pub(super) fn move_to(
        &mut self,
        system: &mut System,
        name: &str,
        engine: EngineKind,
    ) -> Result<()> {
        if let Some(id) = self.objects.get(name) {
            system
                .memory_mut()
                .migrate(*id, csd_sim::memory::Region::local_to(engine))
                .map_err(|e| ActivePyError::exec(format!("migrating `{name}`: {e}")))?;
            self.update_peak(system);
        }
        Ok(())
    }

    /// Frees `name`'s allocation (the value died: no later consumer).
    fn release(&mut self, system: &mut System, name: &str) -> Result<()> {
        if let Some(id) = self.objects.remove(name) {
            system
                .memory_mut()
                .dealloc(id)
                .map_err(|e| ActivePyError::exec(format!("dealloc `{name}`: {e}")))?;
        }
        Ok(())
    }

    /// Frees every bound value that has no consumer after line `at` and is
    /// not the program result.
    pub(super) fn release_dead(
        &mut self,
        system: &mut System,
        program: &Program,
        at: usize,
    ) -> Result<()> {
        let result_var = program
            .lines()
            .last()
            .map(|l| l.target.clone())
            .unwrap_or_default();
        let dead: Vec<String> = self
            .objects
            .keys()
            .filter(|name| **name != result_var && program.consumers_of(name, at).is_empty())
            .cloned()
            .collect();
        for name in dead {
            self.release(system, &name)?;
        }
        Ok(())
    }

    fn update_peak(&mut self, system: &System) {
        let used = system
            .memory()
            .used(csd_sim::memory::Region::DeviceDram)
            .as_u64();
        self.peak_device = self.peak_device.max(used);
    }
}

/// Moves any of `line`'s inputs that live on the other engine next to it,
/// returning the bytes shipped (the shared-address-space placement policy:
/// data lives near whoever reads it next).
/// `move_allocation` distinguishes the two staging modes: a host line
/// materializes its inputs in host DRAM (the allocation moves), while a
/// chunk-pipelined CSD region *streams* its inputs — the transfer is
/// charged but the device never holds more than chunk buffers, so the
/// allocation stays put.
#[allow(clippy::too_many_arguments)]
pub(super) fn stage_inputs(
    program: &Program,
    line: &alang::ast::Line,
    engine: EngineKind,
    system: &mut System,
    vm: &Vm<'_>,
    var_loc: &mut BTreeMap<String, EngineKind>,
    vars: &mut VarSpace,
    move_allocation: bool,
    recov: &mut Recovery,
    shard: Option<&ShardSlice>,
) -> Result<u64> {
    let mut staged = 0u64;
    for name in line.inputs() {
        let bytes = match shard {
            // A shard ships only its own rows of a partitioned value; a
            // line outside the charge range ships nothing at all.
            Some(sh) => sh.scale_def(program.def_site(name), line.index, vm.var_bytes(name)),
            None => vm.var_bytes(name),
        };
        if bytes == 0 {
            continue;
        }
        if let Some(loc) = var_loc.get(name) {
            if *loc != engine {
                let dir = match engine {
                    EngineKind::Cse => Direction::HostToDevice,
                    EngineKind::Host => Direction::DeviceToHost,
                };
                // Staging must complete; DMA faults only delay it.
                recov.run_to_completion(system, |s| s.try_transfer(dir, Bytes::new(bytes)));
                staged += bytes;
                var_loc.insert(name.clone(), engine);
                if move_allocation {
                    vars.move_to(system, name, engine)?;
                }
            }
        }
    }
    Ok(staged)
}
