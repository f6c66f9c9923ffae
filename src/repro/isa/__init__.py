"""Abstract ISA: opcode classes and struct-of-arrays instruction traces."""

from .opcodes import (
    CONTROL_OPS,
    FP_ARITH_OPS,
    INT_ARITH_OPS,
    MEMORY_OPS,
    N_OP_CLASSES,
    N_REGISTERS,
    NO_ADDR,
    NO_REG,
    OpClass,
    is_control_op,
    is_memory_op,
    op_class_names,
)
from .trace import Trace, concat

__all__ = [
    "CONTROL_OPS",
    "FP_ARITH_OPS",
    "INT_ARITH_OPS",
    "MEMORY_OPS",
    "N_OP_CLASSES",
    "N_REGISTERS",
    "NO_ADDR",
    "NO_REG",
    "OpClass",
    "Trace",
    "concat",
    "is_control_op",
    "is_memory_op",
    "op_class_names",
]
