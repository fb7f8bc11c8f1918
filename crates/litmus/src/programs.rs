//! The paper's example programs as litmus tests.
//!
//! Register map conventions: `XP = x0` is the guard flag (`x_is_private`,
//! inverted to `x_is_public` where the paper's initial value is `true`,
//! since registers start at 0), `X = x1` is the guarded data register.

use crate::{Litmus, DIVERGENCE_FORBIDDEN, DIVERGENCE_IGNORED};
use tm_core::ids::Reg;
use tm_lang::prelude::*;

pub const XP: Reg = Reg(0);
pub const X: Reg = Reg(1);

/// Fig 1(a) — the delayed commit problem.
///
/// ```text
/// t0: l := atomic { x_is_private := 1 }        t1: atomic { l1 := x_is_private
///     [fence]                                          if l1 == 0 { x := 42 } }
///     if l == committed { x := 1 }   // ν
/// ```
/// Postcondition: `l = committed ⇒ x = 1`.
pub fn fig1a(with_fence: bool) -> Litmus {
    let l = Var(0);
    let mut t0 = vec![atomic(l, [write(XP, cst(1))])];
    if with_fence {
        t0.push(fence());
    }
    t0.push(if_then(is_committed(l), write(X, cst(1))));

    let t1 = atomic(
        Var(0),
        [
            read(Var(1), XP),
            if_then(eq(v(Var(1)), cst(0)), write(X, cst(42))),
        ],
    );

    Litmus {
        name: if with_fence {
            "fig1a_fenced"
        } else {
            "fig1a_unfenced"
        },
        description: "Fig 1(a): privatization, delayed commit problem",
        program: Program::new(vec![seq(t0), t1]).unwrap(),
        postcondition: |o| !(o.locals[0][0] == COMMITTED && o.regs[X.idx()] != 1),
        divergence: DIVERGENCE_FORBIDDEN,
        expect_drf: with_fence,
    }
}

/// Fig 1(b) — the doomed transaction problem.
///
/// ```text
/// t0: l := atomic { x_is_private := 1 }        t1: atomic { l1 := x_is_private
///     [fence]                                          if l1 == 0 {
///     if l == committed { x := 1 }   // ν                 while (x == 1) {} } }
/// ```
/// Safety property: t1's loop terminates (no divergence). A doomed t1 that
/// observes ν's uninstrumented write spins forever.
pub fn fig1b(with_fence: bool) -> Litmus {
    let l = Var(0);
    let mut t0 = vec![atomic(l, [write(XP, cst(1))])];
    if with_fence {
        t0.push(fence());
    }
    t0.push(if_then(is_committed(l), write(X, cst(1))));

    let t1 = atomic(
        Var(0),
        [
            read(Var(1), XP),
            if_then(
                eq(v(Var(1)), cst(0)),
                seq([
                    read(Var(2), X),
                    while_(eq(v(Var(2)), cst(1)), read(Var(2), X)),
                ]),
            ),
        ],
    );

    Litmus {
        name: if with_fence {
            "fig1b_fenced"
        } else {
            "fig1b_unfenced"
        },
        description: "Fig 1(b): privatization, doomed transaction problem",
        program: Program::new(vec![seq(t0), t1]).unwrap(),
        postcondition: |_| true,
        divergence: DIVERGENCE_FORBIDDEN,
        expect_drf: with_fence,
    }
}

/// Fig 2 — publication.
///
/// The paper's `x_is_private` starts true; we use the inverted flag
/// `x_is_public` (register XP) starting at 0.
///
/// ```text
/// t0: x := 42            // ν, non-transactional
///     l1 := atomic { x_is_public := 1 }
/// t1: l2 := atomic { l3 := x_is_public; if l3 == 1 { l4 := x } }
/// ```
/// Postcondition: `l2 = committed ∧ l4 ≠ 0 ⇒ l4 = 42`.
pub fn fig2() -> Litmus {
    let t0 = seq([write(X, cst(42)), atomic(Var(0), [write(XP, cst(1))])]);
    let t1 = atomic(
        Var(0),
        [
            read(Var(1), XP),
            if_then(eq(v(Var(1)), cst(1)), read(Var(2), X)),
        ],
    );
    Litmus {
        name: "fig2_publication",
        description: "Fig 2: publication idiom",
        program: Program::new(vec![t0, t1]).unwrap(),
        postcondition: |o| {
            let l2 = o.locals[1][0];
            let l4 = o.locals[1][2];
            !(l2 == COMMITTED && l4 != 0 && l4 != 42)
        },
        divergence: DIVERGENCE_FORBIDDEN,
        expect_drf: true,
    }
}

/// Fig 3 — the racy program.
///
/// ```text
/// t0: l := atomic { x := 1; y := 2 }      t1: l1 := x; l2 := y   // both ν
/// ```
/// Postcondition: `x = l1 ⇒ y = l2` (the reads see none or all of T).
pub fn fig3(with_fence: bool) -> Litmus {
    let t0 = atomic(Var(0), [write(Reg(0), cst(1)), write(Reg(1), cst(2))]);
    let t1 = if with_fence {
        // "Inserting fences will not make it DRF" (Sec 3).
        seq([fence(), read(Var(0), Reg(0)), fence(), read(Var(1), Reg(1))])
    } else {
        seq([read(Var(0), Reg(0)), read(Var(1), Reg(1))])
    };
    Litmus {
        name: if with_fence {
            "fig3_fenced"
        } else {
            "fig3_racy"
        },
        description: "Fig 3: racy mixed access",
        program: Program::new(vec![t0, t1]).unwrap(),
        postcondition: |o| {
            let (l1, l2) = (o.locals[1][0], o.locals[1][1]);
            !(o.regs[0] == l1 && o.regs[1] != l2)
        },
        divergence: DIVERGENCE_FORBIDDEN,
        expect_drf: false,
    }
}

/// Fig 6 — privatization by agreement outside transactions.
///
/// ```text
/// t0: l1 := atomic { x := 42 }         t1: do { l2 := x_is_ready } while(!l2)
///     x_is_ready := 1   // ν                l3 := x    // ν''
/// ```
/// Postcondition: `l1 = committed ⇒ l3 = 42`. The spin loop diverges under
/// unfair schedules, so divergence is ignored (fairness assumption).
pub fn fig6() -> Litmus {
    let xr = XP; // x_is_ready
    let t0 = seq([atomic(Var(0), [write(X, cst(42))]), write(xr, cst(1))]);
    let t1 = seq([
        read(Var(0), xr),
        while_(eq(v(Var(0)), cst(0)), read(Var(0), xr)),
        read(Var(1), X),
    ]);
    Litmus {
        name: "fig6_agreement",
        description: "Fig 6: privatization by agreement outside transactions",
        program: Program::new(vec![t0, t1]).unwrap(),
        postcondition: |o| !(o.locals[0][0] == COMMITTED && o.locals[1][1] != 42),
        divergence: DIVERGENCE_IGNORED,
        expect_drf: true,
    }
}

/// Sec 2.2 — privatize, modify non-transactionally, publish back.
///
/// ```text
/// t0: l0 := atomic { x_is_private := 1 }
///     [fence]
///     if l0 == committed {
///         l1 := x; x := l1 + 5        // ν reads + writes
///         l2 := atomic { x_is_private := 0 }
///     }
/// t1: l0 := atomic { l1 := x_is_private
///                    if l1 == 0 { l2 := x; x := 42 } }
/// ```
/// Postcondition: if everything committed and the final value is 42, then t1
/// must have observed the privatized modification (it ran after publication).
pub fn privatize_modify_publish(with_fence: bool) -> Litmus {
    let mut t0 = vec![atomic(Var(0), [write(XP, cst(1))])];
    if with_fence {
        t0.push(fence());
    }
    t0.push(if_then(
        is_committed(Var(0)),
        seq([
            read(Var(1), X),
            write(X, add(v(Var(1)), cst(5))),
            atomic(Var(2), [write(XP, cst(0))]),
        ]),
    ));
    let t1 = atomic(
        Var(0),
        [
            read(Var(1), XP),
            if_then(
                eq(v(Var(1)), cst(0)),
                seq([read(Var(2), X), write(X, cst(42))]),
            ),
        ],
    );
    Litmus {
        name: if with_fence {
            "pmp_fenced"
        } else {
            "pmp_unfenced"
        },
        description: "Sec 2.2: privatize, modify non-transactionally, publish",
        program: Program::new(vec![seq(t0), t1]).unwrap(),
        postcondition: |o| {
            let t0_priv = o.locals[0][0];
            let t0_pub = o.locals[0][2];
            let t1_c = o.locals[1][0];
            let t1_seen = o.locals[1][2];
            if t0_priv == COMMITTED
                && t0_pub == COMMITTED
                && t1_c == COMMITTED
                && o.regs[X.idx()] == 42
            {
                // t1's write of 42 is final: t1 must have run after
                // publication, seeing the modified value (0+5 or 42+5).
                t1_seen == 5 || t1_seen == 47
            } else {
                true
            }
        },
        divergence: DIVERGENCE_FORBIDDEN,
        expect_drf: with_fence,
    }
}

/// The GCC libitm bug class (Sec 1, \[43\]): quiescence elided after read-only
/// transactions. Three threads:
///
/// ```text
/// t0 (A): atomic { x_is_private := 1 }                      // privatizer
/// t1 (B): l0 := atomic { l1 := x_is_private }  // READ-ONLY observer
///         [fence]  (only in the fenced variant)
///         if l1 == 1 { x := 7 }                // ν
/// t2 (C): atomic { l1 := x_is_private; if l1 == 0 { x := 42 } }
/// ```
/// Postcondition: `B committed ∧ B.l1 = 1 ⇒ x = 7` — C's delayed write-back
/// must not overwrite ν. Run against `ImplicitFence::{AfterEvery,
/// SkipReadOnly}` to reproduce the bug: the read-only observer's commit skips
/// quiescence, so C's write-back lands after ν.
pub fn gcc_bug(with_explicit_fence: bool) -> Litmus {
    let t0 = atomic(Var(0), [write(XP, cst(1))]);
    let mut t1 = vec![atomic(Var(0), [read(Var(1), XP)])];
    if with_explicit_fence {
        t1.push(fence());
    }
    t1.push(if_then(
        and(is_committed(Var(0)), eq(v(Var(1)), cst(1))),
        write(X, cst(7)),
    ));
    let t2 = atomic(
        Var(0),
        [
            read(Var(1), XP),
            if_then(eq(v(Var(1)), cst(0)), write(X, cst(42))),
        ],
    );
    Litmus {
        name: if with_explicit_fence {
            "gccbug_fenced"
        } else {
            "gccbug_unfenced"
        },
        description: "Read-only privatizing observer (GCC libitm bug class)",
        program: Program::new(vec![t0, seq(t1), t2]).unwrap(),
        postcondition: |o| {
            let b_committed = o.locals[1][0] == COMMITTED;
            let b_saw_private = o.locals[1][1] == 1;
            !(b_committed && b_saw_private && o.regs[X.idx()] != 7)
        },
        divergence: DIVERGENCE_FORBIDDEN,
        expect_drf: with_explicit_fence,
    }
}

/// Read-only privatization — a scan under a read-freeze.
///
/// ```text
/// t0: l0 := atomic { x_is_private := 1 }      t1: atomic { l1 := x_is_private
///     fence                                                l2 := x      // a get
///     if l0 == committed {                                 [if l1 == 0] { x := 42 } }
///         l1 := x; l2 := x   // ν, ν: the double read
///     }
/// ```
/// Postcondition: `l0 = committed ⇒ l1 = l2` (the privatized snapshot is
/// stable). t1's read of `x` is never guarded: a get goes through a
/// read-freeze, and a transactional read never conflicts with t0's
/// uninstrumented reads (Def 3.2), so the guarded program is DRF. With
/// `write_through`, t1's write is not guarded either — a writer going
/// through a read-freeze — and the program is racy.
pub fn read_privatize(write_through: bool) -> Litmus {
    let t0 = seq([
        atomic(Var(0), [write(XP, cst(1))]),
        fence(),
        if_then(
            is_committed(Var(0)),
            seq([read(Var(1), X), read(Var(2), X)]),
        ),
    ]);
    let put = write(X, cst(42));
    let t1 = atomic(
        Var(0),
        [
            read(Var(1), XP),
            read(Var(2), X),
            if write_through {
                put
            } else {
                if_then(eq(v(Var(1)), cst(0)), put)
            },
        ],
    );
    Litmus {
        name: if write_through {
            "read_privatize_write_through"
        } else {
            "read_privatize"
        },
        description: "Read-only privatization: gets pass a read-freeze, writes must not",
        program: Program::new(vec![t0, t1]).unwrap(),
        postcondition: |o| !(o.locals[0][0] == COMMITTED && o.locals[0][1] != o.locals[0][2]),
        divergence: DIVERGENCE_FORBIDDEN,
        expect_drf: !write_through,
    }
}

/// All litmus tests in their canonical configurations.
pub fn all() -> Vec<Litmus> {
    vec![
        fig1a(false),
        fig1a(true),
        fig1b(false),
        fig1b(true),
        fig2(),
        fig3(false),
        fig3(true),
        fig6(),
        privatize_modify_publish(false),
        privatize_modify_publish(true),
        gcc_bug(false),
        gcc_bug(true),
        read_privatize(false),
        read_privatize(true),
    ]
}
