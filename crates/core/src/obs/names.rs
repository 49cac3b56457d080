//! The name registry: every event kind, counter and gauge the workspace
//! records, declared once.
//!
//! [`ObsSink::emit`](super::ObsSink::emit), [`ObsSink::add`](super::ObsSink::add)
//! and [`ObsSink::observe`](super::ObsSink::observe) take these types, so
//! code can only record a name listed here, and a reader that matches
//! `EventKind::X.name()` fails to compile when `X` is renamed. The recorded
//! strings are [`EventKind::name`] and friends; `docs/OBSERVABILITY.md`
//! documents each one, and `crates/experiments/tests/doc_links.rs` holds
//! the three `ALL` arrays and the document to each other.

/// Declares a name enum with its `ALL` array and `name()` strings.
macro_rules! registry {
    ($(#[$meta:meta])* $ty:ident { $($(#[$vmeta:meta])* $variant:ident = $name:literal,)* }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $ty {
            $($(#[$vmeta])* $variant,)*
        }

        impl $ty {
            /// Every name, in `docs/OBSERVABILITY.md` order.
            pub const ALL: [$ty; [$($name),*].len()] = [$($ty::$variant),*];

            /// The string recorded in events and manifests.
            pub const fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)*
                }
            }
        }
    };
}

registry! {
    /// The `kind` of an [`Event`](super::Event).
    EventKind {
        /// Once, first line of a run manifest.
        RunStart = "run_start",
        /// One per training cell, before it runs.
        CellStart = "cell_start",
        /// One per training cell, with its metrics.
        CellFinish = "cell_finish",
        /// One per periodic loss evaluation.
        Round = "round",
        /// One per V2V session.
        Session = "session",
        /// One per V2V payload transfer.
        Transfer = "transfer",
        /// One per RSU/backend message.
        Backend = "backend",
        /// One per completed LbChat chat: valuation losses and ψ (§III-B/C).
        Chat = "chat",
        /// One per closed-loop evaluation trial.
        Trial = "trial",
        /// One per traced fan-out item.
        WorkUnit = "work_unit",
        /// A named scoped timer, on close.
        Span = "span",
        /// One per recorded result table.
        Table = "table",
        /// Once, last line of a run manifest.
        RunEnd = "run_end",
    }
}

registry! {
    /// A monotonic counter, summed over a run.
    Counter {
        /// V2V sessions.
        Sessions = "sessions",
        /// Completed LbChat chats.
        Chats = "chats",
        /// Periodic loss evaluations.
        Rounds = "rounds",
        /// Points in both coresets of each chat.
        CoresetPoints = "coreset_points",
        /// Bytes offered to the channel.
        BytesTx = "bytes_tx",
        /// Bytes successfully delivered.
        BytesDelivered = "bytes_delivered",
        /// Transfers and backend messages that did not fully deliver.
        TransfersFailed = "transfers_failed",
        /// Closed-loop evaluation trials.
        Trials = "trials",
        /// Trials ending in a collision.
        Collisions = "collisions",
        /// Trials that ran out of budget.
        Timeouts = "timeouts",
        /// Trials that strayed too far from the route.
        OffRoutes = "off_routes",
        /// Minibatches the batched training kernels processed.
        TrainBatch = "train.batch",
        /// Samples those minibatches contained.
        TrainSamples = "train.samples",
        /// Pairs the encounter scan distance-tested.
        NetEncounterCandidates = "net.encounter.candidates",
        /// Contact estimates the runtime computed.
        NetContactEstimates = "net.contact.estimates",
        /// Bytes the `ψ·S` cost model charged per LbChat model send.
        CompressModelBytes = "compress.model_bytes",
        /// The same sends under the `min(2ψ, 1)·S` pair accounting.
        CompressPairBytes = "compress.pair_bytes",
    }
}

registry! {
    /// A gauge, summarized as `{n, sum, min, max}`.
    Gauge {
        /// Both sides' compression ratio ψ at every chat (Eq. 7).
        Psi = "psi",
    }
}
