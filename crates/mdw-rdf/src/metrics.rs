//! Named monitoring counters, declared once.
//!
//! A counter set is a struct of `AtomicU64` fields that bump sites
//! `fetch_add` with relaxed ordering (monitoring, not synchronization) and
//! that every report reads through one method, [`CounterSet::read`]: each
//! counter's name is its field name, so it is written exactly once — in the
//! [`counter_set!`](crate::counter_set) declaration — and no document or
//! report can miss it.

/// A group of named `u64` counters.
pub trait CounterSet {
    /// Every counter as `(name, value)`, in declaration order.
    fn read(&self) -> Vec<(&'static str, u64)>;

    /// The sum of the counters whose name ends with `suffix`: a whole name
    /// reads one counter, a shared suffix (`_shed`) totals a family.
    fn total(&self, suffix: &str) -> u64 {
        self.read().iter().filter(|(name, _)| name.ends_with(suffix)).map(|(_, v)| v).sum()
    }
}

/// One line of `name=value` pairs, in declaration order — the text form of
/// a counter set for reports on a terminal.
pub fn to_line(set: &dyn CounterSet) -> String {
    let pairs: Vec<String> = set.read().iter().map(|(name, v)| format!("{name}={v}")).collect();
    pairs.join(" ")
}

/// Declares a `Debug + Default` struct of `AtomicU64` counters and its
/// [`CounterSet`] impl, which reads them under their field names.
///
/// ```
/// mdw_rdf::counter_set! {
///     /// Requests by outcome.
///     pub struct Outcomes {
///         /// Answered in full.
///         pub complete,
///         shed,
///     }
/// }
/// use mdw_rdf::metrics::CounterSet;
/// let outcomes = Outcomes::default();
/// outcomes.shed.fetch_add(2, std::sync::atomic::Ordering::Relaxed);
/// assert_eq!(outcomes.read(), [("complete", 0), ("shed", 2)]);
/// ```
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$field_meta:meta])* $field_vis:vis $field:ident ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        $vis struct $name {
            $( $(#[$field_meta])* $field_vis $field: ::std::sync::atomic::AtomicU64, )*
        }

        impl $crate::metrics::CounterSet for $name {
            fn read(&self) -> ::std::vec::Vec<(&'static str, u64)> {
                ::std::vec![$(
                    (stringify!($field), self.$field.load(::std::sync::atomic::Ordering::Relaxed)),
                )*]
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    counter_set! {
        struct Probe {
            first,
            second_shed,
            third_shed,
        }
    }

    #[test]
    fn reads_in_declaration_order_and_totals_by_suffix() {
        let probe = Probe::default();
        probe.first.fetch_add(1, Ordering::Relaxed);
        probe.second_shed.fetch_add(2, Ordering::Relaxed);
        probe.third_shed.fetch_add(3, Ordering::Relaxed);
        assert_eq!(probe.read(), [("first", 1), ("second_shed", 2), ("third_shed", 3)]);
        assert_eq!(probe.total("_shed"), 5);
        assert_eq!(probe.total("first"), 1);
        assert_eq!(to_line(&probe), "first=1 second_shed=2 third_shed=3");
    }
}
